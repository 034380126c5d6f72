"""The clustering criterion: pairwise conflicts, log weights, and metaconflict.

A candidate partition is scored by 1 - (1-c0) * prod(1-c_i), where c_i is
the Dempster conflict of combining cluster i's evidence and c0 is the
domain conflict.  The network minimizes the equivalent sum of -log(1-c)
weights, so both views live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from mcfnet.evidence import (
    ONE_MINUS_K_FLOOR,
    CommonalityTable,
    FrameMismatchError,
    SimpleSupport,
    TotalConflictError,
    combine,
)

# Conflicts are clamped just below 1 before the log so mass-1 disjoint pairs
# still produce finite network weights.
WEIGHT_CLAMP = 1.0 - 1e-12


def conflict_weight(c: float) -> float:
    """Log-scale weight -ln(1 - c) of a conflict value, clamped finite at c = 1."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"conflict must be in [0, 1], got {c}")
    return -math.log(1.0 - min(c, WEIGHT_CLAMP))


class ConflictMatrix:
    """Symmetric matrix of pairwise conflicts c_jk with zero diagonal."""

    __slots__ = ("entries", "_log_weights")

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("conflict matrix must be square")
        if not np.allclose(entries, entries.T, rtol=0.0, atol=0.0):
            raise ValueError("conflict matrix must be symmetric")
        if np.any(np.diag(entries) != 0.0):
            raise ValueError("conflict matrix diagonal must be zero")
        if np.any(entries < 0.0) or np.any(entries > 1.0):
            raise ValueError("conflict entries must lie in [0, 1]")
        self.entries = entries
        self._log_weights: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def log_weights(self) -> np.ndarray:
        """Elementwise -ln(1 - c), computed once and cached."""
        if self._log_weights is None:
            self._log_weights = -np.log1p(-np.minimum(self.entries, WEIGHT_CLAMP))
        return self._log_weights


def conflict_matrix(evidence: Sequence[SimpleSupport]) -> ConflictMatrix:
    """Pairwise conflict matrix of a list of simple support functions."""
    if not evidence:
        raise ValueError("need at least one piece of evidence")
    frame = evidence[0].frame
    for e in evidence:
        if e.frame != frame:
            raise FrameMismatchError("evidence over different frames")
    masses = np.array([e.mass for e in evidence])
    # A frame has at most 63 elements, so every focal bitmask fits in int64.
    bits = np.array([e.focal.bits for e in evidence], dtype=np.int64)
    disjoint = (bits[:, None] & bits[None, :]) == 0
    entries = np.where(disjoint, np.outer(masses, masses), 0.0)
    np.fill_diagonal(entries, 0.0)
    return ConflictMatrix(entries)


@dataclass(frozen=True)
class Partition:
    """Assignment of each piece of evidence to one of n_clusters cluster slots."""

    assignment: tuple[int, ...]
    n_clusters: int

    def __post_init__(self) -> None:
        for a in self.assignment:
            if not 0 <= a < self.n_clusters:
                raise ValueError(f"cluster index {a} outside [0, {self.n_clusters})")

    def members(self, cluster: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.assignment) if a == cluster)

    def cluster_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.n_clusters
        for a in self.assignment:
            sizes[a] += 1
        return tuple(sizes)

    def nonempty_count(self) -> int:
        return len(set(self.assignment))


@dataclass(frozen=True)
class McfReport:
    """Per-cluster conflicts, domain conflict, and the resulting metaconflict."""

    cluster_conflicts: tuple[float, ...]
    domain_conflict: float
    mcf: float


def cluster_conflict(
    evidence: Sequence[SimpleSupport], members: Iterable[int]
) -> float:
    """Dempster conflict of combining the member pieces of evidence.

    Empty or singleton member sets have no interaction and return 0.  A
    totally conflicting cluster returns the clamp value just below 1, so a
    partition with such a cluster scores a metaconflict of (nearly) 1
    instead of raising.
    """
    members = sorted(members)
    if len(members) < 2:
        return 0.0
    try:
        _, k = combine([evidence[i].to_mass() for i in members])
    except TotalConflictError:
        return WEIGHT_CLAMP
    return k


def metaconflict(c0: float, cluster_conflicts: Sequence[float]) -> float:
    """1 - (1 - c0) * prod(1 - c_i); the conflict against a partitioning."""
    prod = 1.0 - c0
    for c in cluster_conflicts:
        prod *= 1.0 - c
    return 1.0 - prod


def evaluate_partition(
    evidence: Sequence[SimpleSupport], partition: Partition, c0: float = 0.0
) -> McfReport:
    """Score a partition: per-cluster conflicts and the overall metaconflict."""
    if len(partition.assignment) != len(evidence):
        raise ValueError("partition length does not match evidence count")
    conflicts = tuple(
        cluster_conflict(evidence, partition.members(i))
        for i in range(partition.n_clusters)
    )
    return McfReport(conflicts, c0, metaconflict(c0, conflicts))


def kernel_conflicts(table: CommonalityTable, partition: Partition) -> np.ndarray:
    """cluster_conflict of every cluster of a partition, from the commonality kernel.

    table is the commonality table of the partitioned evidence.
    """
    assignment = np.asarray(partition.assignment)
    columns = _cluster_columns(_factors(table), assignment, partition.n_clusters)
    sizes = np.bincount(assignment, minlength=partition.n_clusters)
    return _conflicts(table.coef @ columns, sizes)


def _factors(table: CommonalityTable) -> np.ndarray:
    """Commonality factor 1 - outside[:, i] * m_i of each piece of evidence i."""
    return 1.0 - table.outside * table.masses


def _cluster_columns(
    factors: np.ndarray, assignment: np.ndarray, n_clusters: int
) -> np.ndarray:
    """One commonality column per cluster: the product of its members' factors.

    1 - k of a cluster is coef @ its column.
    """
    return np.stack(
        [factors[:, assignment == c].prod(axis=1) for c in range(n_clusters)], axis=1
    )


def _conflicts(one_minus_k: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Conflicts as cluster_conflict gives them, from 1 - k and member counts.

    Fewer than two members score exactly 0; a 1 - k below the floor of
    combine scores WEIGHT_CLAMP.  The signed sum can land a rounding error
    outside [0, 1], so the rest is clipped.
    """
    c = np.where(
        one_minus_k < ONE_MINUS_K_FLOOR,
        WEIGHT_CLAMP,
        np.clip(1.0 - one_minus_k, 0.0, 1.0),
    )
    return np.where(sizes < 2, 0.0, c)


def refine_partition(
    evidence: Sequence[SimpleSupport], partition: Partition, table: CommonalityTable
) -> Partition:
    """Greedy single-move descent on the metaconflict from a starting partition.

    Repeatedly moves one piece of evidence to another cluster while any move
    lowers the log score by more than 1e-12 * max(1, |score|).  Moves stay in
    the clusters occupied in the starting partition, so the cluster count
    never increases.  Deterministic: rows and target clusters are scanned in
    index order and the best move per row is taken.

    Candidates are scored from one commonality column per cluster over the
    patterns of table, the commonality table of evidence: moving a piece
    multiplies each target column by its factor, and its source column is
    rebuilt without it.
    """
    if len(partition.assignment) != len(evidence):
        raise ValueError("partition length does not match evidence count")
    allowed = sorted(set(partition.assignment))
    assignment = np.array(partition.assignment)
    factors = _factors(table)
    columns = _cluster_columns(factors, assignment, partition.n_clusters)
    sizes = np.bincount(assignment, minlength=partition.n_clusters)
    conflicts = _conflicts(table.coef @ columns, sizes).tolist()

    def log_score(confs: Sequence[float]) -> float:
        return sum(conflict_weight(c) for c in confs)

    current = log_score(conflicts)
    improved = True
    while improved:
        improved = False
        for m in range(len(evidence)):
            source = int(assignment[m])
            targets = [t for t in allowed if t != source]
            if not targets:
                continue
            staying = assignment == source
            staying[m] = False
            src_column = factors[:, staying].prod(axis=1)
            dst_columns = columns[:, targets] * factors[:, m, None]
            new = _conflicts(
                table.coef @ np.column_stack([src_column, dst_columns]),
                np.array([sizes[source] - 1] + [sizes[t] + 1 for t in targets]),
            ).tolist()
            new_src = new[0]
            best_target, best_score, best_index = source, current, None
            for index, target in enumerate(targets, start=1):
                score = (
                    current
                    - conflict_weight(conflicts[source])
                    - conflict_weight(conflicts[target])
                    + conflict_weight(new_src)
                    + conflict_weight(new[index])
                )
                if score < best_score - 1e-12 * max(1.0, abs(best_score)):
                    best_target, best_score, best_index = target, score, index
            if best_index is not None:
                conflicts[source], conflicts[best_target] = new_src, new[best_index]
                columns[:, source] = src_column
                columns[:, best_target] = dst_columns[:, best_index - 1]
                sizes[source] -= 1
                sizes[best_target] += 1
                assignment[m] = best_target
                current = best_score
                improved = True
    return Partition(tuple(assignment.tolist()), partition.n_clusters)
