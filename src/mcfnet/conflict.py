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
    FrameMismatchError,
    SimpleSupport,
    TotalConflictError,
    combine,
    pairwise_conflict,
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
    focals = [e.focal.bits for e in evidence]
    n = len(evidence)
    disjoint = np.array(
        [[focals[j] & focals[k] == 0 for k in range(n)] for j in range(n)]
    )
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


def refine_partition(
    evidence: Sequence[SimpleSupport], partition: Partition
) -> Partition:
    """Greedy single-move descent on the metaconflict from a starting partition.

    Repeatedly moves one piece of evidence to another cluster while any move
    strictly lowers the metaconflict.  Moves are restricted to the clusters
    already occupied in the starting partition, so the cluster count never
    increases.  Deterministic: rows and target clusters are scanned in index
    order and the best move per row is taken.
    """
    if len(partition.assignment) != len(evidence):
        raise ValueError("partition length does not match evidence count")
    allowed = sorted(set(partition.assignment))
    assignment = list(partition.assignment)
    conflicts = [
        cluster_conflict(evidence, [i for i, a in enumerate(assignment) if a == c])
        for c in range(partition.n_clusters)
    ]

    def log_score(confs: Sequence[float]) -> float:
        return sum(conflict_weight(c) for c in confs)

    current = log_score(conflicts)
    improved = True
    while improved:
        improved = False
        for m in range(len(evidence)):
            source = assignment[m]
            best_target, best_score, best_pair = source, current, None
            for target in allowed:
                if target == source:
                    continue
                src_members = [
                    i for i, a in enumerate(assignment) if a == source and i != m
                ]
                dst_members = [
                    i for i, a in enumerate(assignment) if a == target
                ] + [m]
                new_src = cluster_conflict(evidence, src_members)
                new_dst = cluster_conflict(evidence, dst_members)
                score = (
                    current
                    - conflict_weight(conflicts[source])
                    - conflict_weight(conflicts[target])
                    + conflict_weight(new_src)
                    + conflict_weight(new_dst)
                )
                if score < best_score - 1e-15:
                    best_target, best_score = target, score
                    best_pair = (new_src, new_dst)
            if best_pair is not None:
                conflicts[source], conflicts[best_target] = best_pair
                assignment[m] = best_target
                current = best_score
                improved = True
    return Partition(tuple(assignment), partition.n_clusters)
