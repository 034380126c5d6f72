"""The voltage grid: initialization, update rule, entropy, convergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfnet.conflict import ConflictMatrix, conflict_matrix
from mcfnet.network import (
    DOM_TI,
    DTI,
    EB,
    EB_ANNEAL,
    ETA,
    GI,
    NOISE_AMPLITUDE,
    RI,
    U0,
    U_CLAMP,
    V_HIGH,
    V_LOW,
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


def advance(state: NetworkState, weights: ConflictMatrix, gd) -> NetworkState:
    """One step as a run takes it: coupling from weights, alpha from the state's entropy."""
    _, alpha = entropy(state)
    return step(state, coupling_matrix(weights), gd, alpha)


class ZeroNoise:
    """A generator stand-in whose uniform draws are all 0: init_state without noise."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def manual_state(u: np.ndarray, v: np.ndarray | None = None, t: int = 0,
                 entropy0: float = 1.0) -> NetworkState:
    u = np.asarray(u, dtype=float)
    if v is None:
        v = output_voltage(u)
    return NetworkState(u=u, v=np.asarray(v, dtype=float), t=t, entropy0=entropy0)


class TestOutputVoltage:
    def test_midpoint(self):
        assert output_voltage(0.0) == 0.5

    def test_at_u0(self):
        assert output_voltage(0.02) == pytest.approx(0.880797, abs=1e-6)

    def test_saturation(self):
        assert output_voltage(1e6) == pytest.approx(1.0, abs=1e-12)
        assert output_voltage(-1e6) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=300)
    def test_range_and_monotonicity(self, us, u0):
        # The drawn u0 rescales the inputs: output_voltage sees us in units of u0.
        v = output_voltage(np.array(us) / u0 * U0)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        order = np.argsort(us)
        assert np.all(np.diff(v[order]) >= 0.0)


class TestInitState:
    def test_two_columns_no_noise(self):
        state = init_state(4, 2, ZeroNoise())
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 0.5)
        assert state.t == 0

    def test_six_columns_no_noise(self):
        state = init_state(31, 6, ZeroNoise())
        assert state.u[0, 0] == pytest.approx(-0.016095, abs=1e-6)
        assert np.allclose(state.v, 1.0 / 6.0, atol=1e-12)

    def test_noise_bounded(self):
        state = init_state(31, 6, np.random.default_rng(1))
        u00 = U0 * math.atanh(2.0 / 6.0 - 1.0)
        assert np.all(np.abs(state.u - u00) <= 0.1 * U0)

    def test_seed_reproducibility(self):
        a = init_state(31, 6, np.random.default_rng(42))
        b = init_state(31, 6, np.random.default_rng(42))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            init_state(5, 1, np.random.default_rng(0))


class TestCoupling:
    def test_symmetric(self):
        rng = np.random.default_rng(3)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(7)]
        coupling = coupling_matrix(conflict_matrix(evidence))
        assert np.allclose(coupling, coupling.T, atol=0.0)

    def test_higher_conflict_more_inhibition(self):
        low = ConflictMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
        high = ConflictMatrix(np.array([[0.0, 0.9], [0.9, 0.0]]))
        assert coupling_matrix(high)[0, 1] < coupling_matrix(low)[0, 1]

    def test_domain_drive_cumulative(self):
        gd = np.array([0.1, 0.2, 0.3, 0.4])
        expected = np.array([0.0, 0.1, 0.3, 0.6])
        assert np.allclose(domain_drive(gd), expected, atol=1e-12)


class TestStep:
    def test_pure_bias_from_silent_grid(self):
        # With no conflict signal, no neighbors, and a dark grid, one step
        # is exactly eta * eb; at alpha = 1 the bias is not annealed, and
        # eta * eb lies inside the clamp, which isolates the five-term rule.
        state = manual_state(np.zeros((3, 2)), v=np.zeros((3, 2)))
        new = step(state, coupling_matrix(zero_weights(3)), np.zeros(2), 1.0)
        assert np.allclose(new.u, ETA * EB, atol=1e-15)
        assert new.t == 1

    def test_annealed_bias_from_silent_grid(self):
        # A dark grid has zero entropy, so the annealed bias is eb - eb_anneal.
        state = manual_state(np.zeros((3, 2)), v=np.zeros((3, 2)))
        new = advance(state, zero_weights(3), np.zeros(2))
        expected = ETA * (EB - EB_ANNEAL)
        assert np.allclose(new.u, expected, atol=1e-15)

    def test_conflict_inhibits(self):
        # Raising the conflict between two evidences lowers the drive a lit
        # neighbor contributes.  A fresh grid is at alpha = 1: no annealing.
        state = init_state(2, 2, ZeroNoise())
        low = ConflictMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
        high = ConflictMatrix(np.array([[0.0, 0.9], [0.9, 0.0]]))
        u_low = advance(state, low, None).u
        u_high = advance(state, high, None).u
        assert np.all(u_high <= u_low)

    def test_dimension_mismatch(self):
        state = manual_state(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            step(state, coupling_matrix(zero_weights(4)), None, 1.0)
        with pytest.raises(ValueError):
            step(state, coupling_matrix(zero_weights(3)), np.zeros(5), 1.0)

    def test_clamp_bounds_input_voltage(self):
        # Input voltages far outside the clamp stay there under one small
        # eta step unless the clamp pulls them back.
        state = manual_state(np.full((2, 2), 1.0), v=np.ones((2, 2)))
        new = advance(state, zero_weights(2), None)
        bound = U_CLAMP * U0
        assert np.all(np.abs(new.u) <= bound + 1e-15)

    def test_trajectory_determinism(self):
        rng = np.random.default_rng(9)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(6)]
        weights = conflict_matrix(evidence)
        gd = np.full(3, 1.0 / 3.0)
        trajectories = []
        for _ in range(2):
            state = init_state(6, 3, np.random.default_rng(123))
            for _ in range(10):
                state = advance(state, weights, gd)
            trajectories.append(state.u.copy())
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_v_range_along_trajectory(self):
        rng = np.random.default_rng(5)
        f = Frame(5)
        evidence = [random_ssf(f, rng, i) for i in range(10)]
        weights = conflict_matrix(evidence)
        state = init_state(10, 4, rng)
        for _ in range(25):
            state = advance(state, weights, None)
            assert np.all(state.v >= 0.0) and np.all(state.v <= 1.0)
            assert np.allclose(state.v, output_voltage(state.u))


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
        state = init_state(31, 6, np.random.default_rng(0))
        _, alpha = entropy(state)
        assert alpha == pytest.approx(1.0, abs=1e-12)

    def test_alpha_clamped_to_unit_interval(self):
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5),
                             entropy0=1e-6)
        _, alpha = entropy(state)
        assert alpha == 1.0


class TestConvergence:
    def test_crisp_one_hot(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        state = manual_state(np.zeros((2, 2)), v=v, t=10)
        assert is_crisp(state)
        assert has_converged(state, 1000)

    def test_fresh_init_not_crisp(self):
        state = init_state(31, 6, np.random.default_rng(0))
        assert not is_crisp(state)
        assert not has_converged(state, 1000)

    def test_two_winners_in_a_row_not_crisp(self):
        v = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert not is_crisp(manual_state(np.zeros((2, 2)), v=v))

    def test_iteration_cap(self):
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5), t=5)
        assert has_converged(state, 5)

    def test_crisp_rows_mask(self):
        v = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert crisp_rows(manual_state(np.zeros((2, 2)), v=v)).tolist() == [True, False]


class TestStallAndReseat:
    def test_frozen_grid_is_stalled(self):
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5))
        assert is_stalled(state.u.copy(), state)

    def test_moving_grid_is_not_stalled(self):
        state = manual_state(np.zeros((2, 2)), v=np.full((2, 2), 0.5))
        previous = state.u + U0  # moved a full u0 this step
        assert not is_stalled(previous, state)

    def test_reseat_returns_none_when_all_crisp(self):
        bound = U_CLAMP * U0
        u = np.array([[bound, -bound], [-bound, bound]])
        state = manual_state(u, v=np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = reseat_stalled_row(state, zero_weights(2), np.ones(2), None)
        assert out is None

    def test_reseat_pins_least_conflicting_column(self):
        # Row 2 is stuck dark; it conflicts with row 0 (in column 0) and
        # not with row 1 (in column 1), so it must be pinned to column 1.
        bound = U_CLAMP * U0
        u = np.array([[bound, -bound], [-bound, bound], [-bound, -bound]])
        state = manual_state(u, v=output_voltage(u))
        entries = np.zeros((3, 3))
        entries[0, 2] = entries[2, 0] = 0.8
        out = reseat_stalled_row(
            state, ConflictMatrix(entries), np.array([0.5, 0.5, 0.9]), None
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
        state = init_state(31, 6, np.random.default_rng(2))
        part = extract_partition(state)
        assert len(part.assignment) == 31


class TestConstants:
    def test_published_gains(self):
        assert (ETA, DTI, RI, DOM_TI, GI, EB, U0) == (
            1e-5, -2000.0, -500.0, -2000.0, -200.0, 1800.0, 0.02
        )

    def test_scales_and_thresholds_are_usable(self):
        _check_usable(**_PUBLISHED_BOUNDED)


# The update rule needs a positive gain and scale, and thresholds inside (0, 1).
_PUBLISHED_BOUNDED = {
    "eta": ETA,
    "u0": U0,
    "noise_amplitude": NOISE_AMPLITUDE,
    "u_clamp": U_CLAMP,
    "eb_anneal": EB_ANNEAL,
    "v_low": V_LOW,
    "v_high": V_HIGH,
}


def _check_usable(eta, u0, noise_amplitude, u_clamp, eb_anneal, v_low, v_high):
    if not (eta > 0.0 and u0 > 0.0 and noise_amplitude >= 0.0):
        raise ValueError("eta and u0 must be positive, noise_amplitude non-negative")
    if not (u_clamp > 0.0 and eb_anneal >= 0.0):
        raise ValueError("u_clamp must be positive, eb_anneal non-negative")
    if not 0.0 < v_low < v_high < 1.0:
        raise ValueError("need 0 < v_low < v_high < 1")


class TestHyperParamsValidation:
    """The bad values the former settable gains were rejected for.

    Each case swaps one value of the published constants for a bad one; the
    bounds check that passes the constants must reject it.  The ids keep the
    case numbers of the table these came from; its cases 3 (the iteration
    cap, now `RunConfig`) and 6-8 (non-finite gains) have no constant left.
    """

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"eta": -1.0}, id="kwargs0"),
            pytest.param({"u0": 0.0}, id="kwargs1"),
            pytest.param({"noise_amplitude": -0.1}, id="kwargs2"),
            pytest.param({"u_clamp": -1.0}, id="kwargs4"),
            pytest.param({"eb_anneal": -1.0}, id="kwargs5"),
            pytest.param({"v_low": 0.9, "v_high": 0.1}, id="kwargs9"),
            pytest.param({"v_low": 0.5, "v_high": 0.5}, id="kwargs10"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            _check_usable(**{**_PUBLISHED_BOUNDED, **kwargs})


# Reference formulas: the update, entropy, crispness and reseat computed the
# direct way, rebuilding the coupling, the entropy and the whole output grid
# on every call.  The library's versions must agree with them bit for bit.


def _reference_raw_entropy(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log(v), 0.0)
    return float(terms.sum())


def _reference_step(state, weights, gd) -> NetworkState:
    v = state.v
    coupling = DTI * weights.log_weights + GI
    t1 = coupling.T @ v
    t2 = (RI + GI) * (v.sum(axis=1, keepdims=True) - v)
    raw = _reference_raw_entropy(v)
    alpha = min(max(raw / state.entropy0, 0.0), 1.0)
    eb = EB - (1.0 - alpha) * EB_ANNEAL
    total = t1 + t2 + eb
    if gd is not None:
        total = total + (DOM_TI + GI) * domain_drive(gd)
    u_new = state.u + ETA * (total - state.u)
    bound = U_CLAMP * U0
    np.clip(u_new, -bound, bound, out=u_new)
    return NetworkState(u_new, output_voltage(u_new), state.t + 1, state.entropy0)


def _reference_crisp_rows(v: np.ndarray) -> np.ndarray:
    winners = v >= V_HIGH
    losers = v <= V_LOW
    return (winners.sum(axis=1) == 1) & np.all(winners | losers, axis=1)


def _reference_reseat(state, weights, masses, gd) -> NetworkState | None:
    candidates = np.flatnonzero(~_reference_crisp_rows(state.v))
    if candidates.size == 0:
        return None
    m = int(candidates[np.argmax(masses[candidates])])
    v = state.v
    score = DTI * (weights.log_weights[m] @ v) + GI * (v.sum(axis=0) - v[m])
    if gd is not None:
        score = score + (DOM_TI + GI) * domain_drive(gd)
    best = int(np.argmax(score))
    bound = U_CLAMP * U0
    u_new = state.u.copy()
    u_new[m] = -bound
    u_new[m, best] = bound
    return NetworkState(u_new, output_voltage(u_new), state.t, state.entropy0)


UNIT = st.floats(0.0, 1.0)
# Voltages that include exact 0 and 1 (where tanh saturates) and values
# either side of the crispness thresholds.
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
    """A state, its conflict matrix and an optional gd."""
    u = draw(grids(INPUT))
    rows, cols = u.shape
    entries = np.zeros((rows, rows))
    for i in range(rows):
        for j in range(i + 1, rows):
            entries[i, j] = entries[j, i] = draw(UNIT)
    gd = draw(st.one_of(st.none(), st.lists(UNIT, min_size=cols, max_size=cols)))
    state = NetworkState(u, output_voltage(u), draw(st.integers(0, 999)),
                         draw(st.floats(0.1, 100.0)))
    return state, ConflictMatrix(entries), None if gd is None else np.array(gd)


class TestAgainstReferenceFormulas:
    @given(network_cases())
    @settings(max_examples=400, deadline=None)
    def test_step_is_bit_identical(self, case):
        state, weights, gd = case
        u_before, v_before = state.u.copy(), state.v.copy()
        new = advance(state, weights, gd)
        expected = _reference_step(state, weights, gd)
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
        # Beyond the clamp, tanh saturates to exact 0 and 1 voltages.
        u = np.array([[-1.0, 1.0, 0.0], [0.03, -1.0, 1.0]])
        v = output_voltage(u)
        assert {0.0, 1.0} <= set(v.ravel().tolist())
        assert repr(raw_entropy(v)) == repr(_reference_raw_entropy(v))
        assert raw_entropy(np.ones((2, 2))) == 0.0
        assert raw_entropy(np.zeros((2, 2))) == 0.0

    @given(grids(VOLTAGE))
    @settings(max_examples=400, deadline=None)
    def test_crisp_rows_match_the_two_masks(self, v):
        state = manual_state(np.zeros_like(v), v=v)
        expected = _reference_crisp_rows(v)
        assert crisp_rows(state).tolist() == expected.tolist()
        assert is_crisp(state) == bool(expected.all())

    def test_crispness_at_the_thresholds(self):
        lo, hi = V_LOW, V_HIGH
        v = np.array([
            [hi, lo, lo],                       # crisp: both bounds inclusive
            [math.nextafter(hi, 0.0), lo, lo],  # winner just short
            [hi, math.nextafter(lo, 1.0), lo],  # loser just too bright
            [hi, hi, lo],                       # two winners
            [1.0, 0.0, 0.0],
        ])
        state = manual_state(np.zeros_like(v), v=v)
        assert crisp_rows(state).tolist() == [True, False, False, False, True]
        assert is_crisp(state) is False
        assert is_crisp(manual_state(np.zeros((2, 3)), v=v[[0, 4]])) is True

    @given(network_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reseat_rewrites_one_row(self, case, data):
        state, weights, gd = case
        masses = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=state.rows,
                                             max_size=state.rows)))
        u_before, v_before = state.u.copy(), state.v.copy()
        out = reseat_stalled_row(state, weights, masses, gd)
        assert np.array_equal(state.u, u_before) and np.array_equal(state.v, v_before)
        expected = _reference_reseat(state, weights, masses, gd)
        if expected is None:
            assert out is None
            return
        assert np.array_equal(out.u, expected.u)
        assert np.array_equal(out.v, expected.v)
        assert np.array_equal(out.v, output_voltage(out.u))
        # Every row but the reseated one is unchanged.
        assert np.count_nonzero(np.any((out.u != state.u) | (out.v != state.v), axis=1)) <= 1
        assert (out.t, out.entropy0) == (state.t, state.entropy0)
