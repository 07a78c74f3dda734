"""Run one kcut benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from anywhere; kcut is imported from `src/` next to this directory.
One caller, one process, no threads: a closed loop in which the next
instance starts when the previous one returns.  With `--trace 0` the last
stdout line holds the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run.  The line before it gives the digest of
the byte-stable outputs and the sample details.  Exit status 1 means a wrong
answer, 2 that the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import OpFailed, Recorder, growth, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("graph", "construct", "compass", "bridge", "recognize", "formats", "generate", "dot", "cli")

FUNCTIONS = (
    "graph.OrientedGraph.of",
    "formats.parse_graph", "formats.serialize_graph", "formats.run_script", "formats.script_of",
    "recognize.is_qgraph", "recognize.is_kgraph", "recognize.decompose",
    "recognize.synthesize_compass", "recognize.qgraph_construction",
    "compass.is_local_compass_graph",
    "bridge.construction_from_compass", "bridge.lambda_of",
    "construct.sigma_canonical", "construct.same_compass_graph", "construct.decompose_at",
    "generate.enumerate_oriented_trees", "generate.random_construction",
    "dot.export_dot",
    "cli.check", "cli.decompose", "cli.compass", "cli.compose", "cli.equiv",
)

# functions whose per-call time is fitted against input size on the ladders
GROWTH = (
    "graph.OrientedGraph.of",
    "formats.parse_graph", "formats.serialize_graph", "formats.run_script", "formats.script_of",
    "recognize.is_kgraph", "recognize.decompose", "recognize.synthesize_compass",
    "compass.is_local_compass_graph",
    "bridge.construction_from_compass", "bridge.lambda_of",
    "construct.sigma_canonical", "construct.same_compass_graph", "construct.decompose_at",
    "dot.export_dot",
)

CLI_CALLS = 60  # subprocess calls in the CLI sample, cycling over the jobs
IMPORT_CALLS = 10  # `python -c "import kcut"` calls for cli.import_ms
TAIL_BEYOND = 10  # instances the tail percentile must leave above it
# The cyclic collector is off inside instances and runs between them, outside
# the timing, once this many tracked objects are pending.  Left on, its pauses
# over the millions of path objects the compass check allocates (and keeps in
# reference cycles) made chain instances ~45% slower and ~15% noisier.
GC_PENDING = 100_000


class SetupError(Exception):
    """The benchmark cannot run here (no kcut sources, bad arguments)."""


class SetupWrong(Exception):
    """Set-up got a wrong answer from kcut (e.g. a tree count)."""


def load_kcut() -> SimpleNamespace:
    """Import kcut afresh from src/ and return its modules by layer name.
    Dropping earlier imports gives each set-up its own module state, so no
    memoised object survives from one set-up to the next."""
    for name in [m for m in sys.modules if m == "kcut" or m.startswith("kcut.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"kcut.{layer}") for layer in LAYERS + ("errors",)}
    origin = Path(sys.modules["kcut"].__file__).resolve().parent
    if origin != (SRC / "kcut").resolve():
        raise SetupError(f"imported kcut from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload_cls, seed: int, tiny: bool, tracing: bool):
    """Import kcut and build the workload's inputs; returns the loaded
    modules, the workload, the recorder of the set-up calls and the time."""
    start = perf_counter()
    kc = load_kcut()
    rec = Recorder(kc.errors.KcutError, tracing)
    rec.label = f"{workload_cls.name} set-up"
    with rec.span("bench.setup"):
        try:
            workload = workload_cls(kc, rec, seed, tiny)
        except OpFailed:
            raise SetupWrong("; ".join(rec.wrong + rec.errors)) from None
    return kc, workload, rec, perf_counter() - start


def min_passes(workload) -> int:
    """Fewest passes that leave TAIL_BEYOND instances above the percentile."""
    per_pass = len(workload.items)
    p = workload.tail_percentile / 100
    passes = 1
    while passes * per_pass - math.ceil(p * passes * per_pass) < TAIL_BEYOND:
        passes += 1
    return passes


def run_passes(workload, rec, seconds: float, least: int = 1, exactly: int | None = None,
               after_pass=None):
    """Run whole passes over the workload's items until the next pass would
    end after `seconds` (but at least `least` passes), or exactly `exactly`
    passes; `after_pass(elapsed)` runs after each pass.  Returns
    per-instance seconds inside kcut, completed instances, the per-pass
    output digests and the wall time."""
    times: list[float] = []
    digests: list[str] = []
    completed = 0
    start = perf_counter()
    gc.collect()
    gc.disable()
    try:
        while True:
            began = perf_counter()
            digest = hashlib.sha256()
            base = len(digests) * len(workload.items)
            for index, item in enumerate(workload.items):
                rec.label = f"{workload.name} pass {len(digests)} item {index}"
                rec.busy = 0.0
                with rec.span("bench.instance", instance=base + index):
                    try:
                        workload.run(rec, item, digest)
                        completed += 1
                    except OpFailed:
                        pass
                times.append(rec.busy)
                if gc.get_count()[0] > GC_PENDING:
                    gc.collect()
            rec.label = f"{workload.name} pass {len(digests)} probes"
            workload.probes(rec, digest)
            digests.append(digest.hexdigest())
            gc.collect()
            if after_pass is not None:
                after_pass(perf_counter() - start)
            now = perf_counter()
            if exactly is not None:
                if len(digests) >= exactly:
                    break
            elif len(digests) >= least and now - start + (now - began) > seconds:
                break
    finally:
        gc.enable()
    if len(set(digests)) > 1:
        rec.wrong.append(f"{workload.name}: the same inputs gave different outputs in different passes")
    return times, completed, digests, perf_counter() - start


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CliSample:
    """The workload's CLI jobs, run as `python -m kcut.cli` subprocesses one
    at a time, each output checked.  `until` runs calls, cycling over the
    jobs, until `count` have been made; the end-to-end run spreads them
    between passes so that the median covers the whole run."""

    def __init__(self, workload, rec, seed: int, workdir: Path):
        self.name = workload.name
        self.rec = rec
        self.workdir = workdir
        self.jobs = workload.cli_jobs(workdir, random.Random(seed))
        self.env = _cli_env()
        self.times: list[float] = []
        self.digest = hashlib.sha256()  # stdout of the first call of each job
        self.calls = 0

    def until(self, count: int) -> None:
        with self.rec.span("bench.cli"):
            while self.calls < count:
                self._call(self.jobs[self.calls % len(self.jobs)])
                self.calls += 1

    def _call(self, job) -> None:
        rec = self.rec
        rec.label = f"{self.name} {job.name} {job.argv[0]}"
        run = functools.partial(
            subprocess.run, [sys.executable, "-m", "kcut.cli", *job.argv],
            capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120,
        )
        rec.busy = 0.0
        try:
            proc = rec.call(job.name, 0, run)
            self.times.append(rec.busy)
            try:
                ok = proc.returncode == job.exit_code and job.check(proc.stdout)
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            rec.expect(ok, job.name, f"exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
        except OpFailed:
            return
        if self.calls < len(self.jobs):
            self.digest.update(proc.stdout.encode())


def cli_workdir():
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="cli-", dir=OUT)


def import_ms(calls: int) -> float:
    """Median wall time of `python -c "import kcut"`, in milliseconds."""
    env = _cli_env()
    times = []
    for _ in range(calls):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import kcut"], check=True, env=env, cwd=ROOT,
                       capture_output=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(workload_cls, seed: int, seconds: float, tiny: bool):
    reps = 1 if tiny else workload_cls.setup_reps
    setups = []
    for _ in range(reps):
        kc, workload, _, elapsed = set_up(workload_cls, seed, tiny, tracing=False)
        setups.append(elapsed)
    rec = Recorder(kc.errors.KcutError, tracing=False)
    with cli_workdir() as workdir:
        cli = CliSample(workload, rec, seed, Path(workdir))
        calls = len(cli.jobs) if tiny else CLI_CALLS
        spread = lambda elapsed: cli.until(math.ceil(calls * min(1.0, elapsed / seconds)))
        times, completed, digests, wall = run_passes(
            workload, rec, seconds, least=min_passes(workload),
            exactly=2 if tiny else None, after_pass=spread)
        cli.until(calls)
    digest = hashlib.sha256((digests[0] + cli.digest.hexdigest()).encode())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (completed / sum(times), "1/s"),
        "instance_p50_ms": (statistics.median(times) * 1000, "ms"),
        "instance_tail_ms": (nearest_rank(times, workload.tail_percentile) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
        # 0 only when every CLI call failed, which `failed` then shows
        "cli_p50_ms": (statistics.median(cli.times) * 1000 if cli.times else 0.0, "ms"),
    }
    detail = {
        "setup_samples_s": setups,
        "passes": len(digests),
        "completed": completed,
        "loop_wall_s": wall,
        "tail_percentile": workload.tail_percentile,
        "tail_samples": len(times),
        "cli_samples_ms": [round(t * 1000, 2) for t in cli.times],
        "error_rate": rec.failed / rec.attempted,
        "probe_error_rate": probe_error_rate(rec),
    }
    return rec, metrics, detail, digest.hexdigest()


def probe_error_rate(rec: Recorder) -> float:
    return rec.probe_failed / rec.probe_attempted if rec.probe_attempted else 0.0


def traced(workload_cls, seed: int, seconds: float, tiny: bool):
    """Time `import kcut`, set up, run the loop untraced and then the same
    number of passes traced, then the CLI sample traced.  The traced loop's
    wall time minus the untraced one is the tracing overhead."""
    imported_ms = import_ms(1 if tiny else IMPORT_CALLS)
    kc, workload, rec, setup_wall = set_up(workload_cls, seed, tiny, tracing=True)
    rec.attempted = rec.failed = 0  # counted over the timed calls only
    plain = Recorder(kc.errors.KcutError, tracing=False)
    _, _, plain_digests, plain_wall = run_passes(workload, plain, seconds / 2, exactly=2 if tiny else None)
    passes = len(plain_digests)
    _, _, digests, traced_wall = run_passes(workload, rec, seconds, exactly=passes)
    if digests[0] != plain_digests[0]:
        rec.wrong.append(f"{workload.name}: tracing changed the outputs")
    cli_start = perf_counter()
    with cli_workdir() as workdir:
        cli = CliSample(workload, rec, seed, Path(workdir))
        cli.until(len(cli.jobs) if tiny else CLI_CALLS)
    cli_wall = perf_counter() - cli_start
    digest = hashlib.sha256((digests[0] + cli.digest.hexdigest()).encode())
    wall = setup_wall + traced_wall + cli_wall

    own = self_times(rec.spans)
    by_name: dict[str, list] = {}
    for span in rec.spans:
        by_name.setdefault(span[1], []).append(span)
    layer_self: dict[str, float] = {}
    for span_id, name, *_ in rec.spans:
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[span_id]

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = (layer_self.get(layer, 0.0) / wall, "ratio")
    for fn in FUNCTIONS:
        fn_spans = by_name.get(fn, [])
        metrics[f"{fn}.calls"] = (len(fn_spans), "count")
        metrics[f"{fn}.self_s"] = (sum(own[s[0]] for s in fn_spans), "s")
        metrics[f"{fn}.failed"] = (rec.failed_by[fn] + plain.failed_by[fn], "count")
    for fn in GROWTH:
        points = [(n, end - start) for _, _, start, end, _, _, n in by_name.get(fn, [])]
        metrics[f"{fn}.growth"] = (growth(points), "slope")
    kgraph_calls = len(by_name.get("recognize.is_kgraph", []))
    rejected = rec.counts["recognize.is_kgraph.rejected"]
    metrics["recognize.reject_ratio"] = (rejected / kgraph_calls if kgraph_calls else 0.0, "ratio")
    metrics["cli.import_ms"] = (imported_ms, "ms")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead"] = (traced_wall / plain_wall - 1, "ratio")
    attempted = rec.attempted + plain.attempted
    metrics["error_rate"] = ((rec.failed + plain.failed) / attempted, "ratio")
    merged = _merged(rec, plain)
    metrics["probes.error_rate"] = (probe_error_rate(merged), "ratio")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload_cls.name}-{seed}.jsonl"
    rec.write(spans_file)
    detail = {
        "passes": passes,
        "traced_phases_wall_s": wall,
        "spans": len(rec.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return merged, metrics, detail, digest.hexdigest()


def _merged(a: Recorder, b: Recorder) -> Recorder:
    a.attempted += b.attempted
    a.failed += b.failed
    a.probe_attempted += b.probe_attempted
    a.probe_failed += b.probe_failed
    a.wrong += b.wrong
    a.errors += b.errors
    return a


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; `tiny` shrinks its inputs and sample counts (used by
    the smoke tests, which run this same code path)."""
    args = parse_args(argv)
    if not (SRC / "kcut" / "__init__.py").is_file():
        print(f"perfbench: no kcut package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    try:
        rec, metrics, detail, digest = measure(workload_cls, args.seed, args.seconds, tiny)
    except (SetupError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    except SetupWrong as err:
        print(f"perfbench: wrong answer in set-up: {err}", file=sys.stderr)
        return 1
    wrong = rec.wrong
    for line in wrong + rec.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest,
        "attempted_ops": rec.attempted,
        "failed_ops": rec.failed,
        "probe_ops": rec.probe_attempted,
        "probe_failed_ops": rec.probe_failed,
        "wrong_answers": len(wrong),
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
