"""Acceptance suite: one test per acceptance criterion.

Each test prints a single `CRITERION n: PASS|FAIL` line (visible with
pytest -s, or in the captured output of a failing test) and then asserts.
Tolerances are pinned inline.
"""

from __future__ import annotations

import numpy as np
import pytest

from mcfnet.conflict import conflict_matrix, evaluate_partition
from mcfnet.counts import (
    PriorSpec,
    at_least_distribution,
    gradual_determination,
    posterior_counts,
)
from mcfnet.evidence import Frame, combine
from mcfnet.harness import RunConfig, run
from mcfnet.network import (
    U0,
    coupling_matrix,
    entropy,
    init_state,
    output_voltage,
    step,
)
from mcfnet.problems import ProblemSpec, canonical_partition, generate
from tests.conftest import (
    brute_force_at_least,
    brute_force_combine,
    random_mass_function,
    random_ssf,
)

N_SEEDS = 10


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def unknown_runs(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("acceptance_unknown")
    config = RunConfig(mode="unknown-k", trace_dir=trace_dir)
    return [run(config, seed=s) for s in range(N_SEEDS)]


@pytest.fixture(scope="module")
def fixed_runs():
    config = RunConfig(mode="fixed-k", fixed_k=5)
    return [run(config, seed=s) for s in range(N_SEEDS)]


def test_criterion_1_zero_minimum_oracle():
    """Canonical partition of the generated 31-evidence problem scores 0."""
    worst = 0.0
    for seed in range(10):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(seed))
        part = canonical_partition(evidence, spec.frame())
        worst = max(worst, evaluate_partition(evidence, part, 0.0).mcf)
    check(1, worst <= 1e-12, f"max canonical Mcf over 10 seeds = {worst:.3e} (<= 1e-12)")


def test_criterion_2_combination_oracle():
    """combine matches exhaustive focal-product combination on 200 cases."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        frame = Frame(int(rng.integers(1, 5)))
        bodies = [
            random_mass_function(frame, rng)
            for _ in range(int(rng.integers(1, 5)))
        ]
        combined, k = combine(bodies)
        oracle_masses, oracle_k = brute_force_combine(bodies)
        worst = max(worst, abs(k - oracle_k))
        for bits, m in oracle_masses.items():
            worst = max(worst, abs(combined.mass(bits) - m))
    check(2, worst <= 1e-10, f"max |combine - oracle| over 200 cases = {worst:.3e} (<= 1e-10)")


def test_criterion_3_count_evidence_oracle():
    """at_least_distribution matches 2^R subset enumeration on 200 cases."""
    rng = np.random.default_rng(3024)
    worst = 0.0
    for _ in range(200):
        supports = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 11)))
        at_least, theta = at_least_distribution(supports)
        oracle_al, oracle_theta = brute_force_at_least(supports)
        worst = max(worst, float(np.max(np.abs(at_least - oracle_al))))
        worst = max(worst, abs(theta - oracle_theta))
    check(3, worst <= 1e-12, f"max |at_least - enumeration| over 200 cases = {worst:.3e} (<= 1e-12)")


def test_criterion_4_end_to_end_convergence(unknown_runs):
    """Crisp convergence with a determined count in >= 8 of 10 seeded runs."""
    cap = RunConfig().max_iterations
    good = 0
    for r in unknown_runs:
        final_alpha = r.trace_rows[-1]["alpha"]
        if (
            r.crisp
            and r.iterations < cap
            and final_alpha < 0.01
            and r.final_gd is not None
            and float(r.final_gd.max()) > 0.99
        ):
            good += 1
    check(4, good >= 8, f"{good}/10 runs crisp with alpha < 0.01 and max gd > 0.99 (need >= 8)")


def test_criterion_5_cluster_count_histogram(unknown_runs):
    """>= 8 of 10 runs end with 4-6 clusters, >= 3 with exactly 5."""
    counts_ = [r.cluster_count for r in unknown_runs]
    in_range = sum(1 for c in counts_ if 4 <= c <= 6)
    exactly_five = sum(1 for c in counts_ if c == 5)
    ok = in_range >= 8 and exactly_five >= 3
    check(5, ok, f"counts {sorted(counts_)}: {in_range}/10 in [4,6] (need >= 8), {exactly_five} exactly 5 (need >= 3)")


def test_criterion_6_metaconflict_magnitude(unknown_runs):
    """Five-cluster runs have mean Mcf <= 0.05 per cluster, <= 0.01 per evidence."""
    five = [r for r in unknown_runs if r.cluster_count == 5]
    assert five, "no run ended with exactly 5 clusters"
    per_cluster = float(np.mean([r.report.mcf / r.cluster_count for r in five]))
    per_evidence = float(
        np.mean([r.report.mcf / len(r.partition.assignment) for r in five])
    )
    ok = per_cluster <= 0.05 and per_evidence <= 0.01
    check(6, ok, f"mean Mcf/cluster = {per_cluster:.4f} (<= 0.05), mean Mcf/evidence = {per_evidence:.4f} (<= 0.01), n = {len(five)}")


def test_criterion_7_fixed_k_baseline(unknown_runs, fixed_runs):
    """Best-4 fixed-k mean Mcf <= 0.05 and fixed-k <= unknown-k on matched seeds."""
    fixed_mcfs = sorted(r.report.mcf for r in fixed_runs)
    best4_mean = float(np.mean(fixed_mcfs[:4]))
    fixed_mean = float(np.mean([r.report.mcf for r in fixed_runs]))
    unknown_mean = float(np.mean([r.report.mcf for r in unknown_runs]))
    ok = best4_mean <= 0.05 and fixed_mean <= unknown_mean + 1e-12
    check(7, ok, f"fixed-k best-4 mean = {best4_mean:.4f} (<= 0.05); fixed mean {fixed_mean:.4f} <= unknown mean {unknown_mean:.4f}")


def test_criterion_8_iteration_counts(unknown_runs, fixed_runs):
    """Mean iterations to convergence in [20, 300] for both modes."""
    unknown_mean = float(np.mean([r.iterations for r in unknown_runs]))
    fixed_mean = float(np.mean([r.iterations for r in fixed_runs]))
    ok = 20 <= unknown_mean <= 300 and 20 <= fixed_mean <= 300
    check(8, ok, f"mean iterations: unknown-k {unknown_mean:.1f}, fixed-k {fixed_mean:.1f} (both in [20, 300])")


class TestCriterion9PropertySuites:
    """Randomized invariants, >= 1000 cases each."""

    CASES = 1000

    def test_normalization_invariants(self):
        rng = np.random.default_rng(91)
        for _ in range(self.CASES):
            r_max = int(rng.integers(1, 8))
            supports = rng.uniform(0.0, 0.99, size=r_max)
            at_least, theta = at_least_distribution(supports)
            assert theta + at_least.sum() == pytest.approx(1.0, abs=1e-9)
            prior = PriorSpec(p=float(rng.uniform(0.1, 0.95)))
            posterior, _ = posterior_counts(at_least, theta, prior)
            assert posterior.sum() == pytest.approx(1.0, abs=1e-9)
            gd = gradual_determination(posterior, float(rng.uniform(0.0, 1.0)))
            assert gd.sum() == pytest.approx(1.0, abs=1e-9)
        check(9, True, f"normalization held on {self.CASES} cases (tol 1e-9)")

    def test_conflict_matrix_symmetry(self):
        rng = np.random.default_rng(92)
        for _ in range(self.CASES):
            frame = Frame(int(rng.integers(1, 6)))
            evidence = [
                random_ssf(frame, rng, i) for i in range(int(rng.integers(1, 9)))
            ]
            cm = conflict_matrix(evidence)
            assert np.array_equal(cm.entries, cm.entries.T)
            assert np.all(np.diag(cm.entries) == 0.0)
        check(9, True, f"conflict-matrix symmetry held on {self.CASES} cases")

    def test_gd_argmax_invariance(self):
        rng = np.random.default_rng(93)
        for _ in range(self.CASES):
            raw = rng.uniform(1e-3, 1.0, size=int(rng.integers(2, 9)))
            posterior = raw / raw.sum()
            alpha = float(rng.uniform(1e-6, 1.0))
            gd = gradual_determination(posterior, alpha)
            assert int(np.argmax(gd)) == int(np.argmax(posterior))
            assert gd[np.argmax(gd)] >= posterior[np.argmax(posterior)] - 1e-12
        check(9, True, f"gd/posterior argmax invariance held on {self.CASES} cases")

    def test_voltage_range_preservation(self):
        rng = np.random.default_rng(94)
        for _ in range(self.CASES):
            u = rng.normal(0.0, 10.0, size=int(rng.integers(1, 50)))
            u0 = float(rng.uniform(1e-3, 1.0))
            v = output_voltage(u / u0 * U0)  # u in units of the drawn u0
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
        check(9, True, f"V-range preservation held on {self.CASES} cases")

    def test_determinism_by_seed(self):
        rng = np.random.default_rng(95)
        frame = Frame(4)
        evidence = [random_ssf(frame, rng, i) for i in range(6)]
        coupling = coupling_matrix(conflict_matrix(evidence))
        gd = np.full(3, 1.0 / 3.0)
        for _ in range(self.CASES):
            seed = int(rng.integers(0, 2**31))
            a = init_state(6, 3, np.random.default_rng(seed))
            b = init_state(6, 3, np.random.default_rng(seed))
            assert np.array_equal(a.u, b.u)
            sa = step(a, coupling, gd, entropy(a)[1])
            sb = step(b, coupling, gd, entropy(b)[1])
            assert np.array_equal(sa.u, sb.u)
        check(9, True, f"seed determinism held on {self.CASES} cases")
