"""Randomized spanning-tree rounding for minimum-cost k-edge-connected
spanning multi-subgraphs, with the relaxation, fitting, sampling, and
certification machinery needed to test every claim at desk scale."""

from .core import (
    CutSpec,
    MetricInstance,
    MetricViolation,
    MultiEdgeSet,
    NotConnectedError,
    global_min_cut,
    make_edge,
    metric_closure,
    validate_metric,
)
from .lp import (
    FractionalSolution,
    LPNotConvergedError,
    LPReport,
    solve_lp,
)
from .split import (
    SplitGraph,
    build_split_graph,
    identify_back,
)
from .treedist import (
    EdgeGraph,
    FitConvergenceError,
    LambdaWeights,
    fit_max_entropy,
    tree_marginals,
)
from .sampler import (
    RngStream,
    SpanningTree,
    TreeBatch,
    sample_batch,
    sample_fitted_batch,
)
from .rounding import (
    RoundingOutput,
    RoundingParams,
    default_alpha,
    fundamental_cut_counts,
    mst,
    run_rounding,
)
from .verify import (
    ConnectivityCertificate,
    brute_force_opt,
    verify_k_connectivity,
)
from .instances import (
    InstanceFormatError,
    euclidean_instance,
    load_instance,
    random_closure_instance,
)
from .pipeline import (
    ExperimentReport,
    PipelineResult,
    RunRecord,
    prepare,
    round_prepared,
    run_baseline,
    run_batch,
    run_pipeline,
)

__version__ = "0.1.0"
