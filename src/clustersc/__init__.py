"""Cluster synthetic control for panel data.

Pipeline: denoise a donor panel by hard singular value thresholding, cluster
donors in singular vector space, pick the cluster nearest the target, fit a
synthetic control regression on that cluster, and project the counterfactual
post-intervention path.

The top level re-exports the working vocabulary; the modules hold the rest:
linalg (SVD, HSVT, rank rules), regression (OLS/ridge/lasso weights),
cluster (k-means donor clustering), engine (SC and clustered SC), datagen
(two-group sinusoid panels), evaluate (placebo harnesses and Monte-Carlo
experiments), panel (containers and CSV formats), reporting (JSON and plot
CSV emission), cli (command-line surface).
"""

from .cluster import (
    ClusterModel,
    Partition,
    assign_target,
    fit_cluster_model,
    partition_symmetric_difference,
)
from .datagen import (
    GROUP_A_SPEC,
    GROUP_B_SPEC,
    NoiseSpec,
    SignalSpec,
    SyntheticDataset,
    gen_dataset,
    gen_group,
)
from .engine import (
    EffectEstimate,
    ScFit,
    cluster_sc,
    sc_infer,
    sc_learn,
)
from .errors import ClusterScError
from .evaluate import (
    GapExperimentResult,
    MethodVariant,
    PlaceboReport,
    PlaceboRow,
    RecoveryResult,
    cluster_recovery_experiment,
    donor_selection_scores,
    leave_one_out_placebo,
    mse,
    pairwise_improvement,
    random_subset_variant,
    singular_gap_experiment,
    split_placebo,
)
from .linalg import RankRule, SvdFactors, hsvt, select_rank, spectrum_report, svd
from .panel import (
    InterventionSplit,
    PreprocessResult,
    TimePanel,
    load_panel_csv,
    preprocess_hpi,
    save_panel_csv,
)
from .regression import RegressionSpec, WeightVector, active_set, fit
from .reporting import write_report

__all__ = [
    "ClusterModel",
    "Partition",
    "assign_target",
    "fit_cluster_model",
    "partition_symmetric_difference",
    "GROUP_A_SPEC",
    "GROUP_B_SPEC",
    "NoiseSpec",
    "SignalSpec",
    "SyntheticDataset",
    "gen_dataset",
    "gen_group",
    "EffectEstimate",
    "ScFit",
    "cluster_sc",
    "sc_infer",
    "sc_learn",
    "ClusterScError",
    "GapExperimentResult",
    "MethodVariant",
    "PlaceboReport",
    "PlaceboRow",
    "RecoveryResult",
    "cluster_recovery_experiment",
    "donor_selection_scores",
    "leave_one_out_placebo",
    "mse",
    "pairwise_improvement",
    "random_subset_variant",
    "singular_gap_experiment",
    "split_placebo",
    "RankRule",
    "SvdFactors",
    "hsvt",
    "select_rank",
    "spectrum_report",
    "svd",
    "InterventionSplit",
    "PreprocessResult",
    "TimePanel",
    "load_panel_csv",
    "preprocess_hpi",
    "save_panel_csv",
    "RegressionSpec",
    "WeightVector",
    "active_set",
    "fit",
    "write_report",
]

__version__ = "0.1.0"
