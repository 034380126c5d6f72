"""The cluster-count pipeline: existence, at-least, posterior, determination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcfnet.harness as harness
from mcfnet.counts import (
    CountState,
    PriorSpec,
    at_least_distribution,
    cluster_existence,
    compute_count_state,
    existence_supports,
    gradual_determination,
    posterior_counts,
)
from mcfnet.evidence import FocalSet, Frame, SimpleSupport, commonality_table
from mcfnet.harness import RunConfig, run
from mcfnet.network import U0, NetworkState, init_state, output_voltage
from mcfnet.problems import ProblemSpec, generate
from tests.conftest import brute_force_at_least


def ssf(frame: Frame, elements, mass: float) -> SimpleSupport:
    return SimpleSupport(FocalSet.from_elements(frame, elements), mass)


class TestPriorSpec:
    def test_masses_normalized_and_geometric(self):
        m = PriorSpec(p=0.8).masses(6)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)
        ratios = m[1:] / m[:-1]
        assert np.allclose(ratios, 0.8**2, atol=1e-12)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                PriorSpec(p=bad)


class TestClusterExistence:
    def test_dark_column_supports_nothing(self):
        f = Frame(3)
        evidence = [ssf(f, [1], 0.9), ssf(f, [2], 0.9)]
        result = cluster_existence(evidence, [0.0, 0.0])
        assert result.support == 0.0
        assert result.theta == 1.0
        assert not result.meaningless

    def test_single_evidence_full_voltage(self):
        f = Frame(3)
        result = cluster_existence([ssf(f, [2], 0.7)], [1.0])
        assert result.support == pytest.approx(0.7, abs=1e-12)

    def test_two_disjoint_halves(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 0.5), ssf(f, [2], 0.5)]
        result = cluster_existence(evidence, [1.0, 1.0])
        assert result.theta == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.support == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_totally_conflicting_cluster_flagged_meaningless(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 1.0), ssf(f, [2], 1.0)]
        result = cluster_existence(evidence, [1.0, 1.0])
        assert result.meaningless
        assert result.support == 1.0

    def test_voltage_count_mismatch(self):
        f = Frame(2)
        with pytest.raises(ValueError):
            cluster_existence([ssf(f, [1], 0.5)], [0.5, 0.5])


MASSES = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
VOLTAGES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def voltage_grids(draw, max_frame=8, max_evidence=8):
    """Evidence with repeated and whole-frame focal sets, and a voltage grid."""
    frame = Frame(draw(st.integers(1, max_frame)))
    focal = st.one_of(st.just(frame.full_mask), st.integers(1, frame.full_mask))
    pool = draw(st.lists(focal, min_size=1, max_size=4))
    bits = draw(st.lists(st.one_of(focal, st.sampled_from(pool)),
                         min_size=1, max_size=max_evidence))
    evidence = [SimpleSupport(FocalSet(b, frame), draw(MASSES), id=j)
                for j, b in enumerate(bits)]
    cols = draw(st.integers(1, 3))
    v = np.array([[draw(VOLTAGES) for _ in range(cols)] for _ in evidence])
    return evidence, v


def assert_columns_match_reference(evidence, v):
    supports, thetas, meaningless = existence_supports(commonality_table(evidence), v)
    for c in range(v.shape[1]):
        reference = cluster_existence(evidence, v[:, c])
        assert bool(meaningless[c]) == reference.meaningless
        assert abs(supports[c] - reference.support) <= 1e-12
        assert abs(thetas[c] - reference.theta) <= 1e-12


class TestExistenceSupports:
    @given(voltage_grids())
    @settings(max_examples=400, deadline=None)
    def test_matches_cluster_existence(self, case):
        assert_columns_match_reference(*case)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_cluster_existence_on_planted_frame_12(self, seed):
        # Four anchors, each with its singleton and seven supersets made
        # from one or two of the other eight elements.
        rng = np.random.default_rng(seed)
        frame = Frame(12)
        anchors = rng.choice(12, 4, replace=False)
        others = [e for e in range(12) if e not in anchors]
        bits = []
        for a in anchors:
            chosen = {1 << int(a)}
            while len(chosen) < 8:
                extra = rng.choice(others, int(rng.integers(1, 3)), replace=False)
                chosen.add((1 << int(a)) | sum(1 << int(e) for e in extra))
            bits.extend(sorted(chosen))
        evidence = [SimpleSupport(FocalSet(b, frame), float(rng.uniform(0.05, 0.95)))
                    for b in bits]
        v = rng.uniform(0.0, 1.0, size=(len(evidence), 6))
        v[rng.random(v.shape) < 0.2] = 1.0
        v[rng.random(v.shape) < 0.2] = 0.0
        assert_columns_match_reference(evidence, v)

    def test_total_conflict_is_meaningless_in_both(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 1.0), ssf(f, [2], 1.0)]
        v = np.array([[1.0, 1.0, 0.5], [1.0, 0.0, 1.0]])
        supports, thetas, meaningless = existence_supports(commonality_table(evidence), v)
        assert meaningless.tolist() == [True, False, False]
        assert supports[0] == 1.0 and thetas[0] == 0.0
        assert_columns_match_reference(evidence, v)

    def test_dark_column_is_exact(self, problem):
        v = np.zeros((31, 2))
        v[:, 1] = 0.5
        supports, thetas, meaningless = existence_supports(commonality_table(problem), v)
        assert supports[0] == 0.0
        assert thetas[0] == 1.0
        assert not meaningless[0]


class TestAtLeastDistribution:
    def test_two_certain_clusters(self):
        at_least, theta = at_least_distribution([1.0, 1.0, 0.0, 0.0])
        assert at_least[1] == pytest.approx(1.0, abs=1e-12)
        assert at_least[0] == at_least[2] == at_least[3] == 0.0
        assert theta == 0.0

    def test_two_halves(self):
        at_least, theta = at_least_distribution([0.5, 0.5])
        assert theta == pytest.approx(0.25, abs=1e-12)
        assert at_least[0] == pytest.approx(0.5, abs=1e-12)
        assert at_least[1] == pytest.approx(0.25, abs=1e-12)

    def test_all_zero_is_vacuous(self):
        at_least, theta = at_least_distribution([0.0, 0.0, 0.0])
        assert theta == 1.0
        assert np.all(at_least == 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            at_least_distribution([0.5, 1.5])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        supports = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 11)))
        at_least, theta = at_least_distribution(supports)
        oracle_al, oracle_theta = brute_force_at_least(supports)
        assert np.allclose(at_least, oracle_al, atol=1e-12)
        assert theta == pytest.approx(oracle_theta, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_total_mass_one(self, seed):
        rng = np.random.default_rng(seed)
        supports = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 11)))
        at_least, theta = at_least_distribution(supports)
        assert theta + at_least.sum() == pytest.approx(1.0, abs=1e-9)


class TestPosteriorCounts:
    def test_vacuous_evidence_returns_prior(self):
        prior = PriorSpec(p=0.9)
        posterior, c0 = posterior_counts(np.zeros(6), 1.0, prior)
        assert np.allclose(posterior, prior.masses(6), atol=1e-12)
        assert c0 == 0.0

    def test_all_clusters_certain(self):
        prior = PriorSpec(p=0.9)
        at_least = np.zeros(4)
        at_least[3] = 1.0
        posterior, c0 = posterior_counts(at_least, 0.0, prior)
        assert posterior[3] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(posterior[:3], 0.0, atol=1e-12)
        assert c0 == pytest.approx(1.0 - prior.masses(4)[3], abs=1e-12)

    def test_at_least_one_is_uninformative(self):
        prior = PriorSpec(p=0.7)
        at_least = np.zeros(5)
        at_least[0] = 1.0
        posterior, c0 = posterior_counts(at_least, 0.0, prior)
        assert np.allclose(posterior, prior.masses(5), atol=1e-12)
        assert c0 == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_normalization_and_c0_formula(self, seed):
        rng = np.random.default_rng(seed)
        r_max = int(rng.integers(1, 9))
        supports = rng.uniform(0.0, 0.99, size=r_max)
        at_least, theta = at_least_distribution(supports)
        prior = PriorSpec(p=float(rng.uniform(0.1, 0.95)))
        posterior, c0 = posterior_counts(at_least, theta, prior)
        assert posterior.sum() == pytest.approx(1.0, abs=1e-9)
        m = prior.masses(r_max)
        oracle_c0 = sum(
            m[r] * at_least[j] for r in range(r_max) for j in range(r + 1, r_max)
        )
        assert c0 == pytest.approx(oracle_c0, abs=1e-12)


class TestGradualDetermination:
    def test_alpha_one_is_posterior(self):
        posterior = np.array([0.1, 0.6, 0.3])
        assert np.allclose(gradual_determination(posterior, 1.0), posterior)

    def test_alpha_zero_is_one_hot(self):
        posterior = np.array([0.1, 0.6, 0.3])
        assert np.array_equal(gradual_determination(posterior, 0.0), [0.0, 1.0, 0.0])

    def test_tie_breaks_to_smaller_count(self):
        gd = gradual_determination(np.array([0.4, 0.4, 0.2]), 0.0)
        assert np.array_equal(gd, [1.0, 0.0, 0.0])

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            gradual_determination(np.array([1.0]), 1.5)

    @given(st.integers(0, 2**31 - 1), st.floats(0.001, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_blend_properties(self, seed, alpha):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, size=int(rng.integers(2, 8)))
        posterior = raw / raw.sum()
        gd = gradual_determination(posterior, alpha)
        assert gd.sum() == pytest.approx(1.0, abs=1e-9)
        assert int(np.argmax(gd)) == int(np.argmax(posterior))
        assert gd[np.argmax(posterior)] >= posterior[np.argmax(posterior)] - 1e-12


@pytest.fixture(scope="module")
def problem():
    return generate(ProblemSpec(), np.random.default_rng(0))


class TestComputeCountState:
    def test_fresh_init_posterior_positive(self, problem):
        state = init_state(31, 6, np.random.default_rng(0))
        cs = compute_count_state(problem, state, PriorSpec(), 1.0,
                                 commonality_table(problem))
        assert isinstance(cs, CountState)
        assert np.all(cs.posterior > 0.0)
        assert np.array_equal(cs.gd, cs.posterior)  # alpha = 1 identity

    def test_crisp_state_with_empty_column(self, problem):
        u = np.full((31, 6), -10 * U0)
        for m in range(31):
            u[m, m % 5] = 10 * U0  # column 6 stays dark
        state = NetworkState(u=u, v=output_voltage(u), t=50,
                             entropy0=1.0)
        cs = compute_count_state(problem, state, PriorSpec(), 0.0,
                                 commonality_table(problem))
        assert cs.supports[5] < 1e-3
        assert np.all(cs.supports[:5] > 0.5)

    def test_dimension_validation(self, problem):
        state = init_state(31, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            compute_count_state(problem[:30], state, PriorSpec(), 1.0,
                                commonality_table(problem[:30]))

    def test_run_passes_one_table_to_every_call(self, monkeypatch):
        tables = []
        original = harness.compute_count_state

        def recording(evidence, state, prior, alpha, table):
            tables.append(table)
            return original(evidence, state, prior, alpha, table)

        monkeypatch.setattr(harness, "compute_count_state", recording)
        result = run(RunConfig(max_iterations=5), seed=0)
        assert len(tables) == result.iterations + 1
        assert tables[0] is not None
        assert all(t is tables[0] for t in tables)
