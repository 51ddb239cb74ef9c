"""rankworth: worth-based models for partial rankings with ties.

Fit item worths to (possibly tied, possibly partial) rankings by maximum
likelihood or with ghost-item regularization, compute standard errors and
quasi-variances, and grow covariate-driven partitioning trees whose leaves
carry separate fits.
"""

from .errors import DataError, ModelError
from .fit import (
    FitConfig,
    ModelFit,
    convergence_check,
    fit,
)
from .inference import (
    ModelMetrics,
    QuasiVariances,
    Summary,
    comparison_intervals,
    model_metrics,
    quasi_variances,
    summarize,
    vcov,
)
from .likelihood import EventSet, Parameters
from .network import (
    GHOST_ITEM,
    AdjacencyMatrix,
    ConnectivityReport,
    adjacency,
    augment_with_pseudo_rankings,
    connectivity,
)
from .rankings import (
    GroupedRankings,
    OrderingsTable,
    RankingsTable,
    complete_orderings,
    decode_orderings,
    format_ranking,
    from_orderings,
    from_rank_matrix,
    group_rankings,
    subset_items,
)
from .io import (
    read_model_json,
    read_preflib_soc,
    read_rank_csv,
    write_model_json,
    write_rank_csv,
)
from .tree import (
    Covariate,
    CovariateFrame,
    PLTree,
    Split,
    TreeConfig,
    best_split,
    grow_tree,
    instability_test,
    predict_node,
    score_contributions,
    write_tree_plot_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DataError", "ModelError",
    "FitConfig", "ModelFit", "fit", "convergence_check",
    "ModelMetrics", "QuasiVariances", "Summary",
    "comparison_intervals", "model_metrics", "quasi_variances", "summarize", "vcov",
    "EventSet", "Parameters",
    "GHOST_ITEM", "AdjacencyMatrix", "ConnectivityReport",
    "adjacency", "augment_with_pseudo_rankings", "connectivity",
    "GroupedRankings", "OrderingsTable", "RankingsTable",
    "complete_orderings", "decode_orderings", "format_ranking",
    "from_orderings", "from_rank_matrix", "group_rankings", "subset_items",
    "read_model_json", "read_preflib_soc", "read_rank_csv",
    "write_model_json", "write_rank_csv",
    "Covariate", "CovariateFrame", "PLTree", "Split", "TreeConfig",
    "best_split", "grow_tree", "instability_test", "predict_node",
    "score_contributions", "write_tree_plot_csv",
    "__version__",
]
