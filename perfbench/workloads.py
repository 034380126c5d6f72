"""The benchmark's workloads: run configuration, seeded inputs, reference answers.

Every input is generated here from the run's problem seed and handed to
``mcfnet.run`` as explicit evidence, so the program never derives a problem
from a seed of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mcfnet import (
    FocalSet,
    Frame,
    Partition,
    ProblemSpec,
    RunConfig,
    SimpleSupport,
    canonical_partition,
    generate,
)

SPARSE_FRAME = 12
SPARSE_ANCHORS = 4
SPARSE_CLUSTER_SIZE = 8
SPARSE_MASS_RANGE = (0.05, 0.95)


@dataclass(frozen=True)
class Workload:
    """A run configuration and a problem maker: seed -> (evidence, zero-Mcf partition).

    reference_k is the cluster count a run should find.
    """

    name: str
    config: RunConfig
    reference_k: int
    make: Callable[[int], tuple[list[SimpleSupport], Partition]]


def _canonical(frame_size: int) -> Callable[[int], tuple[list[SimpleSupport], Partition]]:
    spec = ProblemSpec(frame_size=frame_size)

    def make(seed: int) -> tuple[list[SimpleSupport], Partition]:
        evidence = generate(spec, np.random.default_rng(seed))
        return evidence, canonical_partition(evidence, spec.frame())

    return make


def planted_sparse(seed: int) -> tuple[list[SimpleSupport], Partition]:
    """Four anchor clusters of eight distinct focal sets over a 12-element frame.

    Each cluster holds its anchor's singleton and seven sets of the anchor
    plus one or two non-anchor elements, so every cluster is conflict-free
    and the planted partition scores Mcf = 0.  The four singletons conflict
    pairwise, so no partition with fewer than four clusters scores 0.
    """
    rng = np.random.default_rng(seed)
    frame = Frame(SPARSE_FRAME)
    anchors = [int(a) for a in rng.choice(SPARSE_FRAME, SPARSE_ANCHORS, replace=False)]
    others = [e for e in range(SPARSE_FRAME) if e not in anchors]
    pieces: list[tuple[int, int]] = []  # (focal bits, planted cluster)
    for cluster, anchor in enumerate(anchors):
        chosen = {1 << anchor}
        while len(chosen) < SPARSE_CLUSTER_SIZE:
            extra = rng.choice(others, int(rng.integers(1, 3)), replace=False)
            chosen.add((1 << anchor) | sum(1 << int(e) for e in extra))
        pieces.extend((bits, cluster) for bits in sorted(chosen))
    order = rng.permutation(len(pieces))
    low, high = SPARSE_MASS_RANGE
    evidence = []
    assignment = []
    for j, i in enumerate(order):
        bits, cluster = pieces[i]
        evidence.append(SimpleSupport(FocalSet(bits, frame), float(rng.uniform(low, high)), id=j))
        assignment.append(cluster)
    return evidence, Partition(tuple(assignment), SPARSE_ANCHORS)


# Why each workload is here is recorded in BENCHMARK.json.  sparse-f12-unknown
# is left out of it: its runs take about 0.7 s, too few fit in one timed run
# of the benchmark to give steady figures, so it is run by name only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-f5-unknown",
            config=RunConfig(problem=ProblemSpec(frame_size=5), mode="unknown-k", columns=6),
            reference_k=5,
            make=_canonical(5),
        ),
        Workload(
            name="grid-f6-fixed",
            config=RunConfig(problem=ProblemSpec(frame_size=6), mode="fixed-k", fixed_k=6),
            reference_k=6,
            make=_canonical(6),
        ),
        Workload(
            name="sparse-f12-unknown",
            config=RunConfig(problem=ProblemSpec(frame_size=SPARSE_FRAME), mode="unknown-k", columns=6),
            reference_k=SPARSE_ANCHORS,
            make=planted_sparse,
        ),
    )
}
