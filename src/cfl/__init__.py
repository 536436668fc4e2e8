"""cfl — clique-factor lab.

Library and CLI for exercising spectral certificates, fractional
K_t-matching LPs, and clique-factor extraction pipelines on pseudorandom
regular graphs.  See the README for the file formats and CLI usage.
"""

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
    graph_difference,
    induced_subgraph,
    induced_weighted,
    parse_graph,
    parse_weighted_graph,
    regularity,
    rich_subgraph,
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
from .spectral import (
    HypothesisReport,
    MixingAuditReport,
    SpectralCert,
    beta_exponent,
    count_ordered_pairs,
    delta_exponent,
    eigenvalue_constant,
    hypothesis_check,
    lambda_floor_check,
    mixing_audit,
    second_eigenvalue,
)
from .cliques import (
    CliqueSet,
    PropertyPReport,
    VertexFamily,
    count_cliques_window,
    default_span_size,
    enumerate_cliques,
    property_P_audit,
    span_clique_audit,
    vertex_family,
)
from .factor_lp import (
    DriverReport,
    DualSolution,
    FactorCert,
    PrimalSolution,
    Prop3Report,
    SlacknessReport,
    check_prop3,
    complementary_slackness,
    corollary_ff_driver,
    has_fractional_factor,
    integral_matching_value,
    solve_dual,
    solve_primal,
    t_star,
)
from .pipeline import (
    ConcentrationReport,
    FactorBundle,
    HypothesisRejected,
    MatchingResult,
    PipelineConfig,
    PipelineReport,
    RandomHypergraph,
    build_Hf,
    concentration_audit,
    default_alpha,
    default_ell,
    dense_extract,
    greedy_completion,
    nibble_matching,
    run_end_to_end,
    sparse_extract,
    sparse_split,
)

__version__ = "0.1.0"
