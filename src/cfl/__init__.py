"""cfl — clique-factor lab.

Library and CLI for exercising spectral certificates, fractional
K_t-matching LPs, and clique-factor extraction pipelines on pseudorandom
regular graphs.  See the README for the file formats and CLI usage.

`import cfl` loads numpy only: the names of `errors`, `graphs` and
`generators` are bound when the package loads, so generating, writing and
reading a graph never imports scipy.  The names of `spectral`, `cliques`,
`factor_lp` and `pipeline` load lazily: the first `cfl.X` or
`from cfl import X` imports X's submodule (and with it scipy) and keeps X
in this module's globals.
"""

import importlib

from .errors import (
    GenerationError,
    InputError,
    InvariantError,
    NumericalError,
    ParseError,
    ResourceError,
)
from .graphs import (
    Graph,
    RegularityInfo,
    WeightedGraph,
    edge_ids,
    from_edge_list,
    induced_subgraph,
    induced_weighted,
    parse_graph,
    parse_weighted_graph,
    regularity,
    uniform_weights,
    write_graph,
    write_weighted_graph,
)
from .generators import (
    GenSpec,
    build,
    gen_circulant,
    gen_complete,
    gen_paley,
    gen_random_regular,
)

# The names that load lazily, by the submodule that defines them
_LAZY = {
    name: module
    for module, names in {
        "spectral": """HypothesisReport MixingAuditReport SpectralCert beta_exponent
            delta_exponent eigenvalue_constant hypothesis_check lambda_floor_check
            mixing_audit second_eigenvalue""",
        "cliques": """CliqueSet count_cliques_window default_span_size enumerate_cliques
            span_clique_audit""",
        "factor_lp": """DualSolution FactorCert PrimalSolution Prop3Report SlacknessReport
            certified_pair check_prop3 complementary_slackness has_fractional_factor
            integral_matching_value solve_dual solve_lp solve_primal t_star""",
        "pipeline": """ConcentrationReport FactorBundle HypothesisRejected MatchingResult
            PipelineConfig PipelineReport RandomHypergraph build_Hf concentration_audit
            default_alpha default_ell dense_extract greedy_completion nibble_matching
            run_end_to_end sparse_extract sparse_split""",
    }.items()
    for name in names.split()
}

# the eager names above (not the submodules bound beside them), then the lazy ones
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(importlib))
] + list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY.values():  # a lazy submodule itself, as `cfl.spectral`
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
