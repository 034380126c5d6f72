"""Golden results: whole runs pinned to the values the reference code gives.

A change that is meant to leave results unchanged (a speed-up, a refactor)
must keep every case here.  Partitions and iteration counts are compared
exactly, Mcf values to 1e-12.
"""

from __future__ import annotations

import pytest

from mcfnet import ProblemSpec, RunConfig, run

FIXED = RunConfig(problem=ProblemSpec(frame_size=6), mode="fixed-k", fixed_k=6)
UNKNOWN = RunConfig(problem=ProblemSpec(frame_size=5), mode="unknown-k", columns=6)

# (config, seed, partition, network partition, iterations, mcf, network mcf)
GOLDEN = [
    (FIXED, 0,
     (5, 1, 5, 3, 5, 1, 5, 0, 5, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 5, 2, 2, 0, 0, 0,
      0, 2, 0, 1, 0, 4, 4, 4, 4, 4, 3, 4, 4, 0, 5, 1, 4, 4, 5, 0, 3, 4, 5, 4, 1, 3,
      3, 2, 4, 0, 2, 1, 4, 3, 2, 0, 5),
     (5, 0, 5, 0, 5, 3, 5, 0, 5, 1, 2, 0, 2, 0, 2, 3, 2, 1, 2, 3, 5, 1, 3, 1, 1, 0,
      3, 2, 0, 1, 3, 4, 4, 4, 4, 4, 3, 4, 4, 0, 5, 1, 4, 4, 5, 0, 3, 4, 5, 4, 3, 3,
      3, 2, 4, 0, 2, 1, 4, 3, 2, 0, 5),
     1000, 0.0, 0.9649732299945841),
    (FIXED, 1,
     (1, 0, 1, 4, 1, 4, 1, 2, 1, 2, 2, 2, 4, 2, 4, 5, 1, 5, 1, 4, 5, 4, 1, 5, 2, 5,
      1, 2, 5, 2, 1, 3, 3, 3, 3, 4, 1, 4, 0, 2, 3, 0, 2, 2, 1, 2, 1, 5, 3, 3, 5, 5,
      1, 3, 1, 2, 1, 0, 0, 4, 4, 3, 0),
     (1, 0, 0, 4, 0, 0, 0, 2, 1, 2, 2, 0, 4, 0, 4, 5, 1, 5, 0, 4, 5, 0, 0, 5, 2, 5,
      0, 2, 5, 2, 0, 0, 3, 3, 3, 4, 1, 4, 0, 2, 3, 0, 2, 0, 1, 2, 1, 5, 3, 3, 5, 5,
      1, 3, 1, 0, 0, 0, 0, 4, 4, 3, 0),
     1000, 0.0, 0.5534293844586508),
    (FIXED, 2,
     (3, 4, 3, 5, 3, 5, 3, 2, 3, 2, 2, 2, 2, 2, 5, 1, 1, 1, 1, 1, 1, 5, 1, 2, 3, 2,
      1, 1, 1, 4, 5, 0, 3, 0, 3, 0, 5, 0, 0, 2, 0, 4, 2, 2, 0, 4, 0, 1, 1, 0, 1, 5,
      1, 0, 3, 0, 0, 0, 0, 5, 0, 2, 4),
     (3, 0, 3, 5, 3, 5, 0, 2, 3, 4, 2, 0, 2, 0, 5, 1, 1, 1, 4, 0, 0, 5, 0, 2, 3, 2,
      1, 4, 4, 4, 5, 0, 3, 0, 3, 0, 5, 0, 0, 2, 0, 4, 2, 2, 0, 4, 0, 1, 1, 0, 1, 5,
      1, 0, 3, 0, 0, 0, 0, 5, 0, 2, 4),
     1000, 0.0, 0.7237431907445726),
    (UNKNOWN, 0,
     (4, 3, 3, 2, 4, 3, 3, 0, 4, 0, 3, 0, 0, 0, 2, 1, 4, 1, 1, 1, 1, 3, 1, 0, 0, 0,
      1, 0, 1, 1, 3),
     (4, 3, 3, 4, 4, 3, 2, 0, 4, 2, 3, 0, 2, 0, 2, 1, 4, 2, 2, 1, 1, 3, 1, 0, 0, 0,
      1, 0, 1, 1, 3),
     69, 0.0, 0.3851896507584873),
    (UNKNOWN, 1,
     (1, 0, 0, 4, 1, 0, 0, 2, 1, 0, 0, 4, 1, 0, 2, 3, 1, 3, 3, 3, 1, 0, 3, 2, 2, 3,
      0, 2, 1, 0, 0),
     (1, 4, 0, 4, 1, 4, 4, 2, 1, 4, 0, 4, 1, 0, 2, 3, 1, 3, 3, 3, 1, 0, 3, 2, 2, 3,
      0, 2, 1, 0, 0),
     76, 0.0, 0.17496900240521518),
    (UNKNOWN, 2,
     (3, 0, 0, 5, 5, 0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 1, 3, 0, 4, 1, 4, 0, 1, 4, 3, 2,
      1, 1, 1, 1, 2),
     (3, 0, 3, 5, 3, 0, 2, 2, 4, 2, 2, 4, 3, 0, 0, 1, 3, 0, 4, 3, 4, 0, 1, 4, 3, 2,
      1, 1, 1, 1, 2),
     75, 0.0, 0.21779064338829357),
]


@pytest.mark.parametrize(
    "config, seed, partition, network_partition, iterations, mcf, network_mcf",
    GOLDEN,
    ids=[f"{c.mode}-f{c.problem.frame_size}-seed{s}" for c, s, *_ in GOLDEN],
)
def test_run_matches_golden(config, seed, partition, network_partition, iterations,
                            mcf, network_mcf):
    result = run(config, seed)
    assert result.partition.assignment == partition
    assert result.network_partition.assignment == network_partition
    assert result.iterations == iterations
    assert result.report.mcf == pytest.approx(mcf, abs=1e-12)
    assert result.network_mcf == pytest.approx(network_mcf, abs=1e-12)
