"""The voltage grid: initialization, update rule, entropy, convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfnet.conflict import ConflictMatrix, conflict_matrix
from mcfnet.network import (
    HyperParams,
    NetworkState,
    coupling_matrix,
    crisp_rows,
    domain_drive,
    entropy,
    extract_partition,
    has_converged,
    init_state,
    is_crisp,
    is_stalled,
    output_voltage,
    raw_entropy,
    reseat_stalled_row,
    step,
)
from tests.conftest import random_ssf
from mcfnet.evidence import Frame


def zero_weights(n: int) -> ConflictMatrix:
    return ConflictMatrix(np.zeros((n, n)))


def advance(state: NetworkState, weights: ConflictMatrix, gd, params: HyperParams) -> NetworkState:
    """One step as a run takes it: coupling from weights, alpha from the state's entropy."""
    _, alpha = entropy(state)
    return step(state, coupling_matrix(weights, params), gd, params, alpha)


def manual_state(u: np.ndarray, v: np.ndarray | None = None, t: int = 0,
                 entropy0: float = 1.0) -> NetworkState:
    u = np.asarray(u, dtype=float)
    if v is None:
        v = output_voltage(u, HyperParams().u0)
    return NetworkState(u=u, v=np.asarray(v, dtype=float), t=t, entropy0=entropy0)


class TestOutputVoltage:
    def test_midpoint(self):
        assert output_voltage(0.0, 0.02) == 0.5

    def test_at_u0(self):
        assert output_voltage(0.02, 0.02) == pytest.approx(0.880797, abs=1e-6)

    def test_saturation(self):
        assert output_voltage(1e6, 0.02) == pytest.approx(1.0, abs=1e-12)
        assert output_voltage(-1e6, 0.02) == pytest.approx(0.0, abs=1e-12)

    def test_u0_must_be_positive(self):
        with pytest.raises(ValueError):
            output_voltage(0.0, 0.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=300)
    def test_range_and_monotonicity(self, us, u0):
        v = output_voltage(np.array(us), u0)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        order = np.argsort(us)
        assert np.all(np.diff(v[order]) >= 0.0)


class TestInitState:
    def test_two_columns_no_noise(self):
        params = HyperParams(noise_amplitude=0.0)
        state = init_state(4, 2, params, np.random.default_rng(0))
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 0.5)
        assert state.t == 0

    def test_six_columns_no_noise(self):
        params = HyperParams(noise_amplitude=0.0)
        state = init_state(31, 6, params, np.random.default_rng(0))
        assert state.u[0, 0] == pytest.approx(-0.016095, abs=1e-6)
        assert np.allclose(state.v, 1.0 / 6.0, atol=1e-12)

    def test_noise_bounded(self):
        params = HyperParams()
        state = init_state(31, 6, params, np.random.default_rng(1))
        u00 = params.u0 * math.atanh(2.0 / 6.0 - 1.0)
        assert np.all(np.abs(state.u - u00) <= 0.1 * params.u0)

    def test_seed_reproducibility(self):
        params = HyperParams()
        a = init_state(31, 6, params, np.random.default_rng(42))
        b = init_state(31, 6, params, np.random.default_rng(42))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            init_state(5, 1, HyperParams(), np.random.default_rng(0))


class TestCoupling:
    def test_symmetric(self):
        rng = np.random.default_rng(3)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(7)]
        coupling = coupling_matrix(conflict_matrix(evidence), HyperParams())
        assert np.allclose(coupling, coupling.T, atol=0.0)

    def test_higher_conflict_more_inhibition(self):
        params = HyperParams()
        low = ConflictMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
        high = ConflictMatrix(np.array([[0.0, 0.9], [0.9, 0.0]]))
        assert coupling_matrix(high, params)[0, 1] < coupling_matrix(low, params)[0, 1]

    def test_domain_drive_cumulative(self):
        gd = np.array([0.1, 0.2, 0.3, 0.4])
        expected = np.array([0.0, 0.1, 0.3, 0.6])
        assert np.allclose(domain_drive(gd), expected, atol=1e-12)


class TestStep:
    def test_pure_bias_from_silent_grid(self):
        # With no conflict signal, no neighbors, and a dark grid, one step
        # is exactly eta * eb; annealing and clamping disabled to isolate
        # the five-term rule.
        params = HyperParams(eb_anneal=0.0, u_clamp=0.0)
        state = manual_state(np.zeros((3, 2)), v=np.zeros((3, 2)))
        new = advance(state, zero_weights(3), np.zeros(2), params)
        assert np.allclose(new.u, params.eta * params.eb, atol=1e-15)
        assert new.t == 1

    def test_annealed_bias_from_silent_grid(self):
        # A dark grid has zero entropy, so the annealed bias is eb - eb_anneal.
        params = HyperParams()
        state = manual_state(np.zeros((3, 2)), v=np.zeros((3, 2)))
        new = advance(state, zero_weights(3), np.zeros(2), params)
        expected = params.eta * (params.eb - params.eb_anneal)
        assert np.allclose(new.u, expected, atol=1e-15)

    def test_zero_gain_freezes_voltages(self):
        params = HyperParams(eta=0.0)
        rng = np.random.default_rng(0)
        state = init_state(5, 3, params, rng)
        new = advance(state, zero_weights(5), np.full(3, 0.2), params)
        assert np.array_equal(new.u, state.u)
        assert new.t == state.t + 1

    def test_conflict_inhibits(self):
        # Raising the conflict between two evidences lowers the drive a lit
        # neighbor contributes.
        params = HyperParams(noise_amplitude=0.0, eb_anneal=0.0)
        state = init_state(2, 2, params, np.random.default_rng(0))
        low = ConflictMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
        high = ConflictMatrix(np.array([[0.0, 0.9], [0.9, 0.0]]))
        u_low = advance(state, low, None, params).u
        u_high = advance(state, high, None, params).u
        assert np.all(u_high <= u_low)

    def test_dimension_mismatch(self):
        params = HyperParams()
        state = manual_state(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            step(state, coupling_matrix(zero_weights(4), params), None, params, 1.0)
        with pytest.raises(ValueError):
            step(state, coupling_matrix(zero_weights(3), params), np.zeros(5), params, 1.0)

    def test_clamp_bounds_input_voltage(self):
        params = HyperParams(eta=1.0)  # huge gain to force saturation
        state = manual_state(np.zeros((2, 2)), v=np.ones((2, 2)))
        new = advance(state, zero_weights(2), None, params)
        bound = params.u_clamp * params.u0
        assert np.all(np.abs(new.u) <= bound + 1e-15)

    def test_trajectory_determinism(self):
        params = HyperParams()
        rng = np.random.default_rng(9)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(6)]
        weights = conflict_matrix(evidence)
        gd = np.full(3, 1.0 / 3.0)
        trajectories = []
        for _ in range(2):
            state = init_state(6, 3, params, np.random.default_rng(123))
            for _ in range(10):
                state = advance(state, weights, gd, params)
            trajectories.append(state.u.copy())
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_v_range_along_trajectory(self):
        params = HyperParams()
        rng = np.random.default_rng(5)
        f = Frame(5)
        evidence = [random_ssf(f, rng, i) for i in range(10)]
        weights = conflict_matrix(evidence)
        state = init_state(10, 4, params, rng)
        for _ in range(25):
            state = advance(state, weights, None, params)
            assert np.all(state.v >= 0.0) and np.all(state.v <= 1.0)
            assert np.allclose(state.v, output_voltage(state.u, params.u0))


class TestEntropy:
    def test_crisp_grid_is_zero(self):
        state = manual_state(np.zeros((2, 3)), v=np.array([[0.0, 1.0, 0.0],
                                                           [1.0, 0.0, 0.0]]))
        raw, alpha = entropy(state)
        assert raw == 0.0
        assert alpha == 0.0

    def test_uniform_half_grid(self):
        v = np.full((31, 6), 0.5)
        assert raw_entropy(v) == pytest.approx(186 * 0.5 * math.log(2), abs=1e-9)
        assert raw_entropy(v) == pytest.approx(64.46, abs=1e-2)

    def test_alpha_is_one_at_start(self):
        state = init_state(31, 6, HyperParams(), np.random.default_rng(0))
        _, alpha = entropy(state)
        assert alpha == pytest.approx(1.0, abs=1e-12)

    def test_alpha_clamped_to_unit_interval(self):
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5),
                             entropy0=1e-6)
        _, alpha = entropy(state)
        assert alpha == 1.0


class TestConvergence:
    def test_crisp_one_hot(self):
        params = HyperParams()
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        state = manual_state(np.zeros((2, 2)), v=v, t=10)
        assert is_crisp(state, params)
        assert has_converged(state, params)

    def test_fresh_init_not_crisp(self):
        params = HyperParams()
        state = init_state(31, 6, params, np.random.default_rng(0))
        assert not is_crisp(state, params)
        assert not has_converged(state, params)

    def test_two_winners_in_a_row_not_crisp(self):
        params = HyperParams()
        v = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert not is_crisp(manual_state(np.zeros((2, 2)), v=v), params)

    def test_iteration_cap(self):
        params = HyperParams(max_iterations=5)
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5), t=5)
        assert has_converged(state, params)

    def test_crisp_rows_mask(self):
        params = HyperParams()
        v = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert crisp_rows(manual_state(np.zeros((2, 2)), v=v),
                          params).tolist() == [True, False]


class TestStallAndReseat:
    def test_frozen_grid_is_stalled(self):
        params = HyperParams()
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5))
        assert is_stalled(state.u.copy(), state, params)

    def test_moving_grid_is_not_stalled(self):
        params = HyperParams()
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5))
        previous = state.u + params.u0  # moved a full u0 this step
        assert not is_stalled(previous, state, params)

    def test_reseat_returns_none_when_all_crisp(self):
        params = HyperParams()
        bound = params.u_clamp * params.u0
        u = np.array([[bound, -bound], [-bound, bound]])
        state = manual_state(u, v=np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = reseat_stalled_row(state, zero_weights(2), np.ones(2), None, params)
        assert out is None

    def test_reseat_pins_least_conflicting_column(self):
        # Row 2 is stuck dark; it conflicts with row 0 (in column 0) and
        # not with row 1 (in column 1), so it must be pinned to column 1.
        params = HyperParams()
        bound = params.u_clamp * params.u0
        u = np.array([[bound, -bound], [-bound, bound], [-bound, -bound]])
        state = manual_state(u, v=output_voltage(u, params.u0))
        entries = np.zeros((3, 3))
        entries[0, 2] = entries[2, 0] = 0.8
        out = reseat_stalled_row(
            state, ConflictMatrix(entries), np.array([0.5, 0.5, 0.9]), None, params
        )
        assert out is not None
        assert out.u[2, 1] == bound and out.u[2, 0] == -bound
        assert np.array_equal(out.u[:2], state.u[:2])


class TestExtractPartition:
    def test_crisp_assignment(self):
        v = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        part = extract_partition(manual_state(np.zeros((2, 3)), v=v))
        assert part.assignment == (1, 0)
        assert part.n_clusters == 3

    def test_tie_breaks_to_lowest_column(self):
        v = np.array([[0.5, 0.5, 0.1]])
        part = extract_partition(manual_state(np.zeros((1, 3)), v=v))
        assert part.assignment == (0,)

    def test_mushy_state_still_fully_assigned(self):
        state = init_state(31, 6, HyperParams(), np.random.default_rng(2))
        part = extract_partition(state)
        assert len(part.assignment) == 31


class TestHyperParamsValidation:
    def test_defaults_are_published_gains(self):
        p = HyperParams()
        assert (p.eta, p.dti, p.ri, p.dom_ti, p.gi, p.eb, p.u0) == (
            1e-5, -2000.0, -500.0, -2000.0, -200.0, 1800.0, 0.02
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": -1.0},
            {"u0": 0.0},
            {"noise_amplitude": -0.1},
            {"max_iterations": 0},
            {"u_clamp": -1.0},
            {"eb_anneal": -1.0},
            {"eta": float("nan")},
            {"eb": float("inf")},
            {"dti": float("-inf")},
            {"v_low": 0.9, "v_high": 0.1},
            {"v_low": 0.5, "v_high": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)


# Reference formulas: the update, entropy, crispness and reseat computed the
# direct way, rebuilding the coupling, the entropy and the whole output grid
# on every call.  The library's versions must agree with them bit for bit.


def _reference_raw_entropy(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log(v), 0.0)
    return float(terms.sum())


def _reference_step(state, weights, gd, params) -> NetworkState:
    v = state.v
    coupling = params.dti * weights.log_weights + params.gi
    t1 = coupling.T @ v
    t2 = (params.ri + params.gi) * (v.sum(axis=1, keepdims=True) - v)
    eb = params.eb
    if params.eb_anneal > 0.0:
        raw = _reference_raw_entropy(v)
        alpha = min(max(raw / state.entropy0, 0.0), 1.0)
        eb = eb - (1.0 - alpha) * params.eb_anneal
    total = t1 + t2 + eb
    if gd is not None:
        total = total + (params.dom_ti + params.gi) * domain_drive(gd)
    u_new = state.u + params.eta * (total - state.u)
    if params.u_clamp > 0.0:
        bound = params.u_clamp * params.u0
        np.clip(u_new, -bound, bound, out=u_new)
    return NetworkState(u_new, output_voltage(u_new, params.u0), state.t + 1, state.entropy0)


def _reference_crisp_rows(v: np.ndarray, params: HyperParams) -> np.ndarray:
    winners = v >= params.v_high
    losers = v <= params.v_low
    return (winners.sum(axis=1) == 1) & np.all(winners | losers, axis=1)


def _reference_reseat(state, weights, masses, gd, params) -> NetworkState | None:
    candidates = np.flatnonzero(~_reference_crisp_rows(state.v, params))
    if candidates.size == 0:
        return None
    m = int(candidates[np.argmax(masses[candidates])])
    v = state.v
    score = (
        params.dti * (weights.log_weights[m] @ v)
        + params.gi * (v.sum(axis=0) - v[m])
    )
    if gd is not None:
        score = score + (params.dom_ti + params.gi) * domain_drive(gd)
    best = int(np.argmax(score))
    bound = (params.u_clamp if params.u_clamp > 0.0 else 5.0) * params.u0
    u_new = state.u.copy()
    u_new[m] = -bound
    u_new[m, best] = bound
    return NetworkState(u_new, output_voltage(u_new, params.u0), state.t, state.entropy0)


UNIT = st.floats(0.0, 1.0)
# Voltages that include exact 0 and 1 (reached with u_clamp = 0) and values
# either side of the default crispness thresholds.
VOLTAGE = st.one_of(
    st.sampled_from([0.0, 1.0, 0.01, 0.99, math.nextafter(0.01, 1.0), math.nextafter(0.99, 0.0)]),
    UNIT,
)
# Input voltages from the middle of the sigmoid out to where tanh saturates.
INPUT = st.one_of(st.floats(-0.15, 0.15), st.floats(-2.0, 2.0))


@st.composite
def grids(draw, values):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(2, 6))
    return np.array([[draw(values) for _ in range(cols)] for _ in range(rows)])


@st.composite
def network_cases(draw):
    """A state, its conflict matrix, an optional gd, and gains with every stabilizer on or off."""
    u = draw(grids(INPUT))
    rows, cols = u.shape
    entries = np.zeros((rows, rows))
    for i in range(rows):
        for j in range(i + 1, rows):
            entries[i, j] = entries[j, i] = draw(UNIT)
    gd = draw(st.one_of(st.none(), st.lists(UNIT, min_size=cols, max_size=cols)))
    params = HyperParams(
        eta=draw(st.sampled_from([1e-5, 1e-3, 0.5])),
        u_clamp=draw(st.one_of(st.just(0.0), st.floats(0.5, 10.0))),
        eb_anneal=draw(st.one_of(st.just(0.0), st.floats(1.0, 1000.0))),
    )
    state = NetworkState(u, output_voltage(u, params.u0), draw(st.integers(0, 999)),
                         draw(st.floats(0.1, 100.0)))
    return state, ConflictMatrix(entries), None if gd is None else np.array(gd), params


class TestAgainstReferenceFormulas:
    @given(network_cases())
    @settings(max_examples=400, deadline=None)
    def test_step_is_bit_identical(self, case):
        state, weights, gd, params = case
        u_before, v_before = state.u.copy(), state.v.copy()
        new = advance(state, weights, gd, params)
        expected = _reference_step(state, weights, gd, params)
        assert np.array_equal(new.u, expected.u)
        assert np.array_equal(new.v, expected.v)
        assert (new.t, new.entropy0) == (expected.t, expected.entropy0)
        assert np.array_equal(state.u, u_before) and np.array_equal(state.v, v_before)

    @given(grids(VOLTAGE))
    @settings(max_examples=400, deadline=None)
    def test_raw_entropy_is_bit_identical(self, v):
        # repr tells -0.0 from 0.0 as well.
        assert repr(raw_entropy(v)) == repr(_reference_raw_entropy(v))

    def test_raw_entropy_of_a_saturated_grid(self):
        # Without the clamp, tanh saturates to exact 0 and 1 voltages.
        params = HyperParams(u_clamp=0.0)
        u = np.array([[-1.0, 1.0, 0.0], [0.03, -1.0, 1.0]])
        v = output_voltage(u, params.u0)
        assert {0.0, 1.0} <= set(v.ravel().tolist())
        assert repr(raw_entropy(v)) == repr(_reference_raw_entropy(v))
        assert raw_entropy(np.ones((2, 2))) == 0.0
        assert raw_entropy(np.zeros((2, 2))) == 0.0

    @given(grids(VOLTAGE), st.sampled_from([(0.01, 0.99), (0.2, 0.5), (0.0, 1.0)]))
    @settings(max_examples=400, deadline=None)
    def test_crisp_rows_match_the_two_masks(self, v, thresholds):
        params = HyperParams(v_low=thresholds[0], v_high=thresholds[1])
        state = manual_state(np.zeros_like(v), v=v)
        expected = _reference_crisp_rows(v, params)
        assert crisp_rows(state, params).tolist() == expected.tolist()
        assert is_crisp(state, params) == bool(expected.all())

    def test_crispness_at_the_thresholds(self):
        params = HyperParams()
        lo, hi = params.v_low, params.v_high
        v = np.array([
            [hi, lo, lo],                       # crisp: both bounds inclusive
            [math.nextafter(hi, 0.0), lo, lo],  # winner just short
            [hi, math.nextafter(lo, 1.0), lo],  # loser just too bright
            [hi, hi, lo],                       # two winners
            [1.0, 0.0, 0.0],
        ])
        state = manual_state(np.zeros_like(v), v=v)
        assert crisp_rows(state, params).tolist() == [True, False, False, False, True]
        assert is_crisp(state, params) is False
        assert is_crisp(manual_state(np.zeros((2, 3)), v=v[[0, 4]]), params) is True

    @given(network_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reseat_rewrites_one_row(self, case, data):
        state, weights, gd, params = case
        masses = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=state.rows,
                                             max_size=state.rows)))
        u_before, v_before = state.u.copy(), state.v.copy()
        out = reseat_stalled_row(state, weights, masses, gd, params)
        assert np.array_equal(state.u, u_before) and np.array_equal(state.v, v_before)
        expected = _reference_reseat(state, weights, masses, gd, params)
        if expected is None:
            assert out is None
            return
        assert np.array_equal(out.u, expected.u)
        assert np.array_equal(out.v, expected.v)
        assert np.array_equal(out.v, output_voltage(out.u, params.u0))
        # Every row but the reseated one is unchanged.
        assert np.count_nonzero(np.any((out.u != state.u) | (out.v != state.v), axis=1)) <= 1
        assert (out.t, out.entropy0) == (state.t, state.entropy0)
