"""Plural-cut graphs: construction, recognition, decomposition, bridging.

The package is organized around three equivalent presentations of the same
family of oriented graphs: cut-trees over star-shaped leaves (`construct`),
graphs carrying per-vertex compasses (`compass`, `bridge`), and a purely
combinatorial characterization via transversal edges (`recognize`).  The
`formats`, `dot`, `generate` and `cli` modules are the operational surface.

Every name below is exported lazily (PEP 562): `import kcut` loads no
module, and the first use of a name loads the module that defines it, so a
command pays only for what it uses.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "CompositionError ConfigError DomainError GraphInvariantError KcutError ParseError "
        "RewriteError ValidationError"
    ),
    "graph": "SLOTS Edge OrientedGraph SemiPath Step VertexClass",
    "construct": (
        "BasicKGraph Construction IdentityGraph apply_rho_move applicable_rho_moves compose "
        "decompose_at eliminate_identities leaf make_basic rename_construction "
        "rho_equivalent same_compass_graph sigma_canonical"
    ),
    "compass": (
        "Compass LocalCompassGraph compose_local cut_graph indecent_path_witness is_decent "
        "is_local_compass_graph is_y_decent separates_n_from_s"
    ),
    "bridge": "construction_from_compass distinguished_from_compass is_yx_edge is_yx_path lambda_of",
    "recognize": (
        "Bifurcation Decomposition QFailure QVerdict Verdict decompose is_kgraph is_proper "
        "is_qgraph is_transversal_edge qgraph_construction synthesize_compass "
        "transversal_bifurcation_witness transversal_edges"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
