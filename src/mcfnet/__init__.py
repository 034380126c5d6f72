"""Clustering of Dempster-Shafer evidence with a Hopfield-style network.

Pieces of evidence (simple support functions) are partitioned into an
unknown number of clusters by minimizing the metaconflict criterion.  A
posterior distribution over the number of clusters is derived from the
network's output voltages each iteration, annealed by normalized entropy,
and fed back into the update rule as a domain drive.
"""

from mcfnet.evidence import (
    Frame,
    FocalSet,
    SimpleSupport,
    MassFunction,
    FrameMismatchError,
    TotalConflictError,
    pairwise_conflict,
    combine,
    discount_by_voltage,
    CommonalityTable,
    commonality_table,
)
from mcfnet.conflict import (
    ConflictMatrix,
    Partition,
    McfReport,
    conflict_matrix,
    conflict_weight,
    cluster_conflict,
    metaconflict,
    evaluate_partition,
    kernel_conflicts,
    refine_partition,
)
from mcfnet.network import (
    NetworkState,
    DegenerateStartError,
    init_state,
    output_voltage,
    step,
    entropy,
    has_converged,
    is_crisp,
    extract_partition,
)
from mcfnet.counts import (
    PriorSpec,
    CountState,
    cluster_existence,
    existence_supports,
    at_least_distribution,
    posterior_counts,
    gradual_determination,
    compute_count_state,
)
from mcfnet.problems import (
    ProblemSpec,
    generate,
    canonical_partition,
    save_evidence,
    load_evidence,
)
from mcfnet.harness import (
    RunConfig,
    RunResult,
    BatchSummary,
    run,
    batch,
    emit_trace,
)

__all__ = [
    "Frame", "FocalSet", "SimpleSupport", "MassFunction",
    "FrameMismatchError", "TotalConflictError",
    "pairwise_conflict", "combine", "discount_by_voltage",
    "CommonalityTable", "commonality_table",
    "ConflictMatrix", "Partition", "McfReport",
    "conflict_matrix", "conflict_weight", "cluster_conflict",
    "metaconflict", "evaluate_partition", "kernel_conflicts", "refine_partition",
    "NetworkState", "DegenerateStartError",
    "init_state", "output_voltage", "step", "entropy",
    "has_converged", "is_crisp", "extract_partition",
    "PriorSpec", "CountState", "cluster_existence", "existence_supports",
    "at_least_distribution", "posterior_counts",
    "gradual_determination", "compute_count_state",
    "ProblemSpec", "generate", "canonical_partition",
    "save_evidence", "load_evidence",
    "RunConfig", "RunResult", "BatchSummary", "run", "batch", "emit_trace",
]
