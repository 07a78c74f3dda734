"""Operation accounting and spans at the benchmark's own call sites.

Every call into kcut goes through `Recorder.call`, which counts it, times
it, classifies its outcome and, when tracing, appends a span.  Spans sit
only here, around the benchmark's calls, so work one layer does by calling
another is billed to the layer the benchmark called.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Returned by `call(..., rejectable=True)` when kcut rejected the input with a
# KcutError, which is an accepted outcome for the deep probes.
REJECTED = object()


class OpFailed(Exception):
    """An operation raised, or returned a wrong answer; the instance stops."""


class Recorder:
    def __init__(self, kcut_error: type, tracing: bool):
        self.kcut_error = kcut_error
        self.tracing = tracing
        self.attempted = 0
        self.failed = 0
        # operations of the deep probes, counted apart (see `probing`)
        self.probe_attempted = 0
        self.probe_failed = 0
        self.failed_by: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.counts: Counter[str] = Counter()
        self.busy = 0.0  # seconds inside kcut since the last instance began
        self.label = ""
        # spans: (id, name, start, end, parent, instance, n); n = input size,
        # 0 where the call is not part of a size ladder
        self.spans: list[tuple[int, str, float, float, int, int, int]] = []
        self._parent = -1
        self._instance = -1
        self._next_id = 0

    # -- operations --------------------------------------------------------

    def call(self, name: str, n: int, fn, *args, rejectable: bool = False):
        """Run one kcut operation.  Raises OpFailed when it raises anything
        but an accepted KcutError; RecursionError counts as a failure."""
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args)
        except self.kcut_error as err:
            if rejectable:
                return REJECTED
            self._fail(name, f"{type(err).__name__}: {err}", self.errors)
        except Exception as err:  # noqa: BLE001 - any other exception is a failed operation
            self._fail(name, f"{type(err).__name__}: {str(err)[:200]}", self.errors)
        finally:
            end = perf_counter()
            self.busy += end - start
            if self.tracing:
                self.spans.append((self._take_id(), name, start, end, self._parent, self._instance, n))

    def expect(self, ok: bool, name: str, what: str) -> None:
        """Check an answer known by construction; a wrong one fails the
        operation that produced it and marks the run incorrect."""
        if not ok:
            self._fail(name, what, self.wrong)

    @contextmanager
    def probing(self):
        """Count the operations made inside in `probe_attempted` and
        `probe_failed` instead of `attempted` and `failed`.  The deep probes
        fail by design until kcut handles deep inputs, and the workload's
        own operations must not; `failed_by` and the wrong answers still
        see both."""
        attempted, failed = self.attempted, self.failed
        try:
            yield
        finally:
            self.probe_attempted += self.attempted - attempted
            self.probe_failed += self.failed - failed
            self.attempted, self.failed = attempted, failed

    def _fail(self, name: str, message: str, log: list[str]) -> None:
        self.failed += 1
        self.failed_by[name] += 1
        if len(log) < 20:
            log.append(f"{self.label}: {name}: {message}")
        raise OpFailed(name)

    # -- span structure ----------------------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str, instance: int = -1):
        """A span enclosing the calls made inside it (an instance, a set-up
        or the CLI sample); its self time is the benchmark's own work."""
        if not self.tracing:
            yield
            return
        span_id = self._take_id()
        outer = (self._parent, self._instance)
        self._parent, self._instance = span_id, instance
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._parent, self._instance = outer
            self.spans.append((span_id, name, start, end, outer[0], instance, 0))

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, instance, n in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "instance": instance, "n": n,
                }) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Children
    of one span never overlap: the benchmark runs one call at a time."""
    own = {span_id: end - start for span_id, _, start, end, _, _, _ in spans}
    for _, _, start, end, parent, _, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def growth(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median time per size) against log(size);
    0.0 when the calls saw fewer than two sizes."""
    by_size: dict[int, list[float]] = defaultdict(list)
    for n, seconds in points:
        if n > 0 and seconds > 0:
            by_size[n].append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(n) for n in by_size]
    ys = [math.log(statistics.median(ts)) for ts in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
