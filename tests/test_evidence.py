"""Frames, focal sets, simple support functions, and Dempster's rule."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfnet.evidence import (
    FocalSet,
    Frame,
    FrameMismatchError,
    MassFunction,
    SimpleSupport,
    TotalConflictError,
    combine,
    commonality_table,
    discount_by_voltage,
    pairwise_conflict,
)
from tests.conftest import (
    brute_force_combine,
    product_combine_discounted,
    random_mass_function,
    random_ssf,
    voltage_grids,
)


def ssf(frame: Frame, elements, mass: float) -> SimpleSupport:
    return SimpleSupport(FocalSet.from_elements(frame, elements), mass)


class TestFrameAndFocalSet:
    def test_frame_size_bounds(self):
        Frame(1)
        Frame(63)
        with pytest.raises(ValueError):
            Frame(0)
        with pytest.raises(ValueError):
            Frame(64)

    def test_default_labels(self):
        assert Frame(3).labels == ("1", "2", "3")

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            Frame(2, labels=("a",))

    def test_full_mask(self):
        assert Frame(5).full_mask == 0b11111

    def test_from_elements_and_back(self):
        f = Frame(5)
        fs = FocalSet.from_elements(f, [1, 3, 5])
        assert fs.bits == 0b10101
        assert fs.elements() == (1, 3, 5)

    def test_bits_outside_frame_rejected(self):
        with pytest.raises(ValueError):
            FocalSet(0b1000, Frame(3))

    def test_intersect_is_bitwise_and(self):
        f = Frame(4)
        a = FocalSet(0b0110, f)
        b = FocalSet(0b1100, f)
        assert a.intersect(b).bits == 0b0100
        assert FocalSet(0b0001, f).intersect(FocalSet(0b0010, f)).is_empty()

    def test_intersect_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            FocalSet(1, Frame(2)).intersect(FocalSet(1, Frame(3)))


class TestSimpleSupport:
    def test_empty_focal_rejected(self):
        with pytest.raises(ValueError):
            SimpleSupport(FocalSet(0, Frame(2)), 0.5)

    def test_mass_bounds(self):
        f = Frame(2)
        ssf(f, [1], 1.0)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                ssf(f, [1], bad)

    def test_to_mass_splits_between_focal_and_frame(self):
        f = Frame(3)
        m = ssf(f, [2], 0.7).to_mass()
        assert m.mass(0b010) == pytest.approx(0.7)
        assert m.theta_mass == pytest.approx(0.3)

    def test_full_frame_focal_collapses_to_one_entry(self):
        f = Frame(2)
        m = SimpleSupport(FocalSet(f.full_mask, f), 0.4).to_mass()
        assert len(m) == 1
        assert m.theta_mass == pytest.approx(1.0)


class TestMassFunction:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            MassFunction(Frame(2), {1: -0.1, 3: 1.1})

    def test_rejects_empty_set_key(self):
        with pytest.raises(ValueError):
            MassFunction(Frame(2), {0: 0.5, 3: 0.5})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            MassFunction(Frame(2), {1: 0.5, 3: 0.4})

    def test_drops_zero_mass_entries(self):
        m = MassFunction(Frame(2), {1: 0.0, 3: 1.0})
        assert len(m) == 1

    def test_vacuous(self):
        m = MassFunction.vacuous(Frame(3))
        assert m.theta_mass == 1.0
        assert len(m) == 1


class TestPairwiseConflict:
    def test_disjoint_focals_product(self):
        f = Frame(3)
        a = ssf(f, [1], 0.6)
        b = ssf(f, [2, 3], 0.5)
        assert pairwise_conflict(a, b) == pytest.approx(0.30)

    def test_overlapping_focals_zero(self):
        f = Frame(3)
        assert pairwise_conflict(ssf(f, [1, 2], 0.9), ssf(f, [2], 0.9)) == 0.0

    def test_self_conflict_zero(self):
        f = Frame(3)
        e = ssf(f, [2], 0.9)
        assert pairwise_conflict(e, e) == 0.0

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            pairwise_conflict(ssf(Frame(2), [1], 0.5), ssf(Frame(3), [1], 0.5))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        f = Frame(int(rng.integers(1, 6)))
        a, b = random_ssf(f, rng), random_ssf(f, rng)
        assert pairwise_conflict(a, b) == pairwise_conflict(b, a)


class TestCombine:
    def test_empty_list_is_vacuous(self):
        f = Frame(3)
        m, k = combine([], frame=f)
        assert m == MassFunction.vacuous(f)
        assert k == 0.0

    def test_empty_list_needs_frame(self):
        with pytest.raises(ValueError):
            combine([])

    def test_single_body_unchanged(self):
        f = Frame(3)
        body = ssf(f, [1, 2], 0.6).to_mass()
        m, k = combine([body])
        assert m == body
        assert k == 0.0

    def test_two_disjoint_halves(self):
        f = Frame(2)
        m, k = combine([ssf(f, [1], 0.5).to_mass(), ssf(f, [2], 0.5).to_mass()])
        assert k == pytest.approx(0.25, abs=1e-12)
        third = 0.25 / 0.75
        assert m.mass(0b01) == pytest.approx(third, abs=1e-12)
        assert m.mass(0b10) == pytest.approx(third, abs=1e-12)
        assert m.theta_mass == pytest.approx(third, abs=1e-12)

    def test_total_conflict_raises(self):
        f = Frame(2)
        with pytest.raises(TotalConflictError):
            combine([ssf(f, [1], 1.0).to_mass(), ssf(f, [2], 1.0).to_mass()])

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            combine(
                [MassFunction.vacuous(Frame(2)), MassFunction.vacuous(Frame(3))]
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(int(rng.integers(1, 5)))
        bodies = [
            random_mass_function(frame, rng) for _ in range(int(rng.integers(1, 5)))
        ]
        combined, k = combine(bodies)
        oracle_masses, oracle_k = brute_force_combine(bodies)
        assert k == pytest.approx(oracle_k, abs=1e-10)
        for bits, m in oracle_masses.items():
            assert combined.mass(bits) == pytest.approx(m, abs=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_order_independence(self, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(int(rng.integers(1, 5)))
        bodies = [
            random_mass_function(frame, rng) for _ in range(int(rng.integers(2, 5)))
        ]
        forward, k1 = combine(bodies)
        backward, k2 = combine(bodies[::-1])
        assert k1 == pytest.approx(k2, abs=1e-9)
        keys = {b for b, _ in forward.bit_items()} | {
            b for b, _ in backward.bit_items()
        }
        for bits in keys:
            assert forward.mass(bits) == pytest.approx(backward.mass(bits), abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_output_normalized(self, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(int(rng.integers(1, 5)))
        bodies = [
            random_mass_function(frame, rng) for _ in range(int(rng.integers(1, 4)))
        ]
        combined, _ = combine(bodies)
        assert sum(m for _, m in combined.bit_items()) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_theta_mass_closed_form_for_ssfs(self, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(int(rng.integers(2, 6)))
        ssfs = [random_ssf(frame, rng, i) for i in range(int(rng.integers(1, 5)))]
        combined, k = combine([e.to_mass() for e in ssfs])
        expected = math.prod(e.to_mass().theta_mass for e in ssfs) / (1.0 - k)
        assert combined.theta_mass == pytest.approx(expected, abs=1e-9)


# One cluster of a 63-piece problem over a 6-element frame.  All focal sets
# but the last hold element 3, so the fold keeps many tiny masses until the
# last body conflicts with nearly all of them.
SHARED_ELEMENT_CLUSTER = [
    (4, 0.7238790195960068), (5, 0.7230526355336313), (12, 0.628609119670852),
    (13, 0.5399890240341108), (14, 0.2787222087900255), (15, 0.827366855496952),
    (20, 0.40760920666555933), (21, 0.9331816584130839), (22, 0.31362704184816703),
    (23, 0.41047200580976395), (28, 0.6989653188245065), (29, 0.40139674172254347),
    (30, 0.9568845302518), (31, 0.21704098167781039), (36, 0.8709774241843848),
    (37, 0.5366106241312232), (39, 0.677958071234802), (44, 0.8297817121056082),
    (52, 0.38931233534503806), (55, 0.9892518225349255), (56, 0.9992470960185155),
]


class TestCombineExactness:
    def test_pruned_fold_still_sums_to_one(self):
        # The folded masses once summed to 1 - 1.2e-9, and MassFunction raised.
        frame = Frame(6)
        evidence = [SimpleSupport(FocalSet(b, frame), m) for b, m in SHARED_ELEMENT_CLUSTER]
        combined, k = combine([e.to_mass() for e in evidence])
        assert sum(m for _, m in combined.bit_items()) == pytest.approx(1.0, abs=1e-12)
        one_minus_k, q_theta = commonality_table(evidence).combine_discounted(
            np.ones((len(evidence), 1))
        )
        assert 1.0 - k == pytest.approx(one_minus_k[0], rel=1e-9)
        assert combined.theta_mass == pytest.approx(q_theta[0] / one_minus_k[0], rel=1e-9)

    def test_keeps_tiny_masses(self):
        # Masses at or below 1e-12 were once dropped, so combine parted from
        # the exact combination by the dropped total.
        f = Frame(2)
        combined, k = combine([ssf(f, [1], 1e-12).to_mass(), ssf(f, [1], 1e-12).to_mass()])
        assert k == 0.0
        assert combined.mass(0b01) == pytest.approx(2e-12 - 1e-24, rel=1e-12)
        assert combined.theta_mass == (1.0 - 1e-12) ** 2

    @given(st.integers(0, 2**31 - 1), st.integers(6, 7))
    @settings(max_examples=20, deadline=None)
    def test_near_total_conflict_after_many_pruned_masses(self, seed, size):
        # Every set holding element 1, then one nearly certain set without
        # it: the last step divides the pruning deficit by 1 - k_step ~ 1e-3.
        rng = np.random.default_rng(seed)
        frame = Frame(size)
        bits = list(range(1, frame.full_mask + 1, 2)) + [frame.full_mask - 1]
        masses = [*rng.uniform(0.01, 1.0, len(bits) - 1), rng.uniform(0.999, 1.0)]
        combined, _ = combine(
            [SimpleSupport(FocalSet(b, frame), float(m)).to_mass() for b, m in zip(bits, masses)]
        )
        assert sum(m for _, m in combined.bit_items()) == pytest.approx(1.0, abs=1e-12)


class TestCommonalityTable:
    def test_groups_subsets_by_containment(self):
        frame = Frame(3)
        evidence = [ssf(frame, [1], 0.5), ssf(frame, [2], 0.5), ssf(frame, [1, 2, 3], 0.5)]
        table = commonality_table(evidence)
        # {1} lies inside the first focal set only, {2} inside the second
        # only; the other five subsets lie inside neither and their signs
        # sum to -1.  All seven lie inside the whole frame.
        rows = sorted(zip(table.outside.tolist(), table.coef.tolist()))
        assert rows == [([0.0, 1.0, 0.0], 1.0), ([1.0, 0.0, 0.0], 1.0),
                        ([1.0, 1.0, 0.0], -1.0)]
        assert table.theta_row.tolist() == [1.0, 1.0, 0.0]
        one_minus_k, q_theta = table.combine_discounted(np.ones((3, 1)))
        assert one_minus_k[0] == pytest.approx(0.75, abs=1e-15)
        assert q_theta[0] == 0.25

    def test_frame_cap(self):
        commonality_table([SimpleSupport(FocalSet(1, Frame(16)), 0.5)])
        with pytest.raises(ValueError, match="at most 16"):
            commonality_table([SimpleSupport(FocalSet(1, Frame(17)), 0.5)])

    def test_rejects_empty_and_mixed_frames(self):
        with pytest.raises(ValueError):
            commonality_table([])
        with pytest.raises(FrameMismatchError):
            commonality_table([ssf(Frame(2), [1], 0.5), ssf(Frame(3), [1], 0.5)])


def assert_matches_product_form(table, v):
    one_minus_k, q_theta = table.combine_discounted(v)
    oracle_one_minus_k, oracle_q_theta = product_combine_discounted(table, v)
    assert np.all(np.abs(one_minus_k - oracle_one_minus_k) <= 1e-12)
    assert np.all(np.abs(q_theta - oracle_q_theta) <= 1e-12)


class TestCombineDiscounted:
    @given(voltage_grids(max_frame=16))
    @settings(max_examples=300, deadline=None)
    def test_matches_product_form(self, case):
        evidence, v = case
        assert_matches_product_form(commonality_table(evidence), v)

    @pytest.mark.parametrize("size", range(1, 17))
    def test_matches_product_form_on_each_frame_size(self, size):
        rng = np.random.default_rng(size)
        frame = Frame(size)
        bits = [frame.full_mask, *rng.integers(1, frame.full_mask + 1, size=11).tolist()]
        masses = rng.uniform(0.05, 1.0, size=len(bits))
        masses[rng.random(len(bits)) < 0.25] = 1.0
        evidence = [SimpleSupport(FocalSet(int(b), frame), float(m))
                    for b, m in zip(bits, masses)]
        v = rng.uniform(0.0, 1.0, size=(len(evidence), 6))
        v[rng.random(v.shape) < 0.2] = 1.0
        v[rng.random(v.shape) < 0.2] = 0.0
        assert_matches_product_form(commonality_table(evidence), v)

    def test_zero_factor_is_exact_and_silent(self):
        # Mass 1 at voltage 1 makes a factor 1 - s of exactly 0, whose log
        # is -inf; the kernel must not take that log.
        f = Frame(2)
        table = commonality_table([ssf(f, [1], 1.0), ssf(f, [2], 0.5), ssf(f, [1, 2], 1.0)])
        v = np.array([[1.0, 0.5, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_minus_k, q_theta = table.combine_discounted(v)
        # Columns 0 and 2 keep {1} at mass 1, so the frame keeps nothing.
        assert q_theta[0] == q_theta[2] == 0.0
        assert q_theta[1] == pytest.approx(0.25, abs=1e-15)
        assert one_minus_k == pytest.approx([0.5, 0.75, 1.0], abs=1e-15)
        assert_matches_product_form(table, v)


class TestDiscountByVoltage:
    def test_zero_voltage_vacuous(self):
        f = Frame(3)
        assert discount_by_voltage(ssf(f, [1], 0.9), 0.0) == MassFunction.vacuous(f)

    def test_full_voltage_identity(self):
        f = Frame(3)
        e = ssf(f, [1, 3], 0.9)
        assert discount_by_voltage(e, 1.0) == e.to_mass()

    def test_half_voltage(self):
        f = Frame(3)
        m = discount_by_voltage(ssf(f, [2], 0.8), 0.5)
        assert m.mass(0b010) == pytest.approx(0.4)
        assert m.theta_mass == pytest.approx(0.6)

    def test_voltage_out_of_range(self):
        f = Frame(2)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                discount_by_voltage(ssf(f, [1], 0.5), bad)
