"""Degree-degree dependency measures for directed graphs.

Pearson, two Spearman variants (uniform and average tie resolution) and
Kendall's tau over the per-edge (source degree, target degree) series, for
all four out/in combinations; plus the synthetic bridge families, heavy-
tailed degree samplers, the erased directed configuration model and the
closed-form / scaling machinery used to validate them.
"""
from ._kernels import BACKEND as kernel_backend
from .config_model import (
    CellStats,
    RandomizationSummary,
    RewireReport,
    balance_iid_sequence,
    erased_configuration_model,
    randomization_study,
)
from .errors import (
    BalanceFailedError,
    DegcorrError,
    DegenerateSizeError,
    EdgeListFormatError,
    EmptyGraphError,
    UnbalancedStubsError,
    ZeroVarianceError,
)
from .generators import (
    BridgeParams,
    PowerLawSpec,
    bridge_graph,
    disconnected_bridge_graph,
    iid_degree_sequence,
    random_bridge_collection,
    sample_integer_power_law,
)
from .graph import (
    ALL_TYPES,
    DegreeTable,
    DependencyType,
    DirectedGraph,
    LoadResult,
    PairSeries,
    degrees,
    edge_degree_pairs,
    load_edge_list,
    vertex_moment_sum,
    write_edge_list,
)
from .measures import (
    concordance_counts,
    kendall_tau,
    pearson,
    spearman_average,
    spearman_ranked,
    spearman_uniform,
    spearman_uniform_mean,
    variance_gap,
)
from .ranking import average_ranks, permutation_ranks, rank_with_ties

__version__ = "0.1.0"

__all__ = [
    "ALL_TYPES",
    "BalanceFailedError",
    "BridgeParams",
    "CellStats",
    "DegcorrError",
    "DegenerateSizeError",
    "DegreeTable",
    "DependencyType",
    "DirectedGraph",
    "EdgeListFormatError",
    "EmptyGraphError",
    "LoadResult",
    "PairSeries",
    "PowerLawSpec",
    "RandomizationSummary",
    "RewireReport",
    "UnbalancedStubsError",
    "ZeroVarianceError",
    "average_ranks",
    "balance_iid_sequence",
    "bridge_graph",
    "concordance_counts",
    "degrees",
    "disconnected_bridge_graph",
    "edge_degree_pairs",
    "erased_configuration_model",
    "iid_degree_sequence",
    "kendall_tau",
    "kernel_backend",
    "load_edge_list",
    "pearson",
    "permutation_ranks",
    "random_bridge_collection",
    "randomization_study",
    "rank_with_ties",
    "sample_integer_power_law",
    "spearman_average",
    "spearman_ranked",
    "spearman_uniform",
    "spearman_uniform_mean",
    "variance_gap",
    "vertex_moment_sum",
    "write_edge_list",
]
