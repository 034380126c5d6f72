"""Conflict weights, the conflict matrix, metaconflict, and refinement."""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcfnet.conflict import (
    WEIGHT_CLAMP,
    ConflictMatrix,
    Partition,
    cluster_conflict,
    conflict_matrix,
    conflict_weight,
    evaluate_partition,
    kernel_conflicts,
    metaconflict,
    refine_partition,
)
from mcfnet.evidence import FocalSet, Frame, SimpleSupport, commonality_table, pairwise_conflict
from mcfnet.problems import ProblemSpec, canonical_partition, generate
from tests.conftest import random_ssf


def ssf(frame: Frame, elements, mass: float) -> SimpleSupport:
    return SimpleSupport(FocalSet.from_elements(frame, elements), mass)


class TestConflictWeight:
    def test_zero(self):
        assert conflict_weight(0.0) == 0.0

    def test_half(self):
        assert conflict_weight(0.5) == pytest.approx(0.693147, abs=1e-6)

    def test_one_is_clamped_finite(self):
        assert conflict_weight(1.0) == pytest.approx(-math.log(1e-12), abs=1e-3)
        assert math.isfinite(conflict_weight(1.0))

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                conflict_weight(bad)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert conflict_weight(lo) <= conflict_weight(hi)


class TestConflictMatrix:
    def test_single_evidence(self):
        f = Frame(2)
        cm = conflict_matrix([ssf(f, [1], 0.5)])
        assert cm.n == 1
        assert cm.entries[0, 0] == 0.0

    def test_two_disjoint(self):
        f = Frame(3)
        cm = conflict_matrix([ssf(f, [1], 0.6), ssf(f, [2, 3], 0.5)])
        assert cm.entries[0, 1] == pytest.approx(0.30)
        assert cm.entries[1, 0] == pytest.approx(0.30)

    def test_all_ones_nonzero_iff_disjoint(self):
        evidence = generate(ProblemSpec(mass_mode="ones"), np.random.default_rng(0))
        cm = conflict_matrix(evidence)
        for j, k in product(range(cm.n), repeat=2):
            disjoint = evidence[j].focal.bits & evidence[k].focal.bits == 0
            assert (cm.entries[j, k] > 0.0) == (disjoint and j != k)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ConflictMatrix(np.array([[0.0, 0.2], [0.3, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            ConflictMatrix(np.array([[0.1]]))  # nonzero diagonal
        with pytest.raises(ValueError):
            ConflictMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]))  # entry above 1
        ConflictMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))  # mass-1 pair is legal

    def test_log_weights_match_scalar_function(self):
        f = Frame(4)
        rng = np.random.default_rng(7)
        evidence = [random_ssf(f, rng, i) for i in range(5)]
        cm = conflict_matrix(evidence)
        for j, k in product(range(5), repeat=2):
            assert cm.log_weights[j, k] == pytest.approx(
                conflict_weight(cm.entries[j, k]), abs=1e-12
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_zero_diagonal_range(self, seed):
        rng = np.random.default_rng(seed)
        f = Frame(int(rng.integers(1, 6)))
        evidence = [random_ssf(f, rng, i) for i in range(int(rng.integers(1, 8)))]
        cm = conflict_matrix(evidence)
        assert np.array_equal(cm.entries, cm.entries.T)
        assert np.all(np.diag(cm.entries) == 0.0)
        assert np.all(cm.entries >= 0.0) and np.all(cm.entries < 1.0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_conflict(self, data):
        # Frame(63) reaches bit 62, the top bit an int64 bitmask can hold.
        frame = Frame(data.draw(st.sampled_from([1, 2, 5, 16, 62, 63])))
        top = 1 << (frame.size - 1)
        focal = st.integers(1, frame.full_mask) | st.integers(0, top - 1).map(lambda b: b | top)
        pieces = data.draw(st.lists(st.tuples(focal, st.floats(0.01, 1.0)),
                                    min_size=1, max_size=8))
        evidence = [SimpleSupport(FocalSet(b, frame), m, id=i)
                    for i, (b, m) in enumerate(pieces)]
        expected = np.array([[0.0 if j == k else pairwise_conflict(a, b)
                              for k, b in enumerate(evidence)]
                             for j, a in enumerate(evidence)])
        assert np.array_equal(conflict_matrix(evidence).entries, expected)


class TestPartition:
    def test_members_and_sizes(self):
        p = Partition((0, 1, 0, 2), 3)
        assert p.members(0) == (0, 2)
        assert p.cluster_sizes() == (2, 1, 1)
        assert p.nonempty_count() == 3

    def test_nonempty_ignores_unused_slots(self):
        assert Partition((0, 0, 2), 4).nonempty_count() == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Partition((0, 3), 3)


class TestClusterConflict:
    def test_empty_and_singleton(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 0.5), ssf(f, [2], 0.5)]
        assert cluster_conflict(evidence, []) == 0.0
        assert cluster_conflict(evidence, [0]) == 0.0

    def test_two_disjoint_halves(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 0.5), ssf(f, [2], 0.5)]
        assert cluster_conflict(evidence, [0, 1]) == pytest.approx(0.25, abs=1e-12)

    def test_total_conflict_is_clamped(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 1.0), ssf(f, [2], 1.0)]
        assert cluster_conflict(evidence, [0, 1]) == pytest.approx(1.0, abs=1e-9)


class TestMetaconflict:
    def test_perfect_partition(self):
        assert metaconflict(0.0, [0.0, 0.0]) == 0.0

    def test_two_halves(self):
        assert metaconflict(0.0, [0.5, 0.5]) == pytest.approx(0.75, abs=1e-12)

    def test_absorbing_domain_conflict(self):
        assert metaconflict(1.0, [0.3, 0.1]) == 1.0

    @given(
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.integers(0, 5),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_monotone_in_each_conflict(self, c0, cs, idx, bump):
        idx = idx % len(cs)
        raised = list(cs)
        raised[idx] = min(1.0, raised[idx] + bump)
        assert metaconflict(c0, raised) >= metaconflict(c0, cs) - 1e-12
        assert metaconflict(min(1.0, c0 + bump), cs) >= metaconflict(c0, cs) - 1e-12


class TestEvaluatePartition:
    def test_canonical_partition_is_zero(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(3))
        part = canonical_partition(evidence, spec.frame())
        report = evaluate_partition(evidence, part, 0.0)
        assert report.mcf <= 1e-12
        assert all(c == 0.0 for c in report.cluster_conflicts)

    def test_one_big_cluster_all_masses_one(self):
        evidence = generate(ProblemSpec(mass_mode="ones"), np.random.default_rng(0))
        part = Partition((0,) * len(evidence), 1)
        report = evaluate_partition(evidence, part, 0.0)
        assert report.mcf == pytest.approx(1.0, abs=1e-9)

    def test_singleton_clusters_are_conflict_free(self):
        evidence = generate(ProblemSpec(), np.random.default_rng(1))
        n = len(evidence)
        part = Partition(tuple(range(n)), n)
        assert evaluate_partition(evidence, part, 0.0).mcf == 0.0

    def test_report_invariant(self):
        rng = np.random.default_rng(11)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(6)]
        part = Partition(tuple(rng.integers(0, 3, size=6)), 3)
        report = evaluate_partition(evidence, part, 0.2)
        assert report.mcf == pytest.approx(
            metaconflict(0.2, report.cluster_conflicts), abs=1e-12
        )

    def test_length_mismatch(self):
        f = Frame(2)
        with pytest.raises(ValueError):
            evaluate_partition([ssf(f, [1], 0.5)], Partition((0, 0), 1), 0.0)


class TestMonotoneTransformEquivalence:
    """Minimizing the sum of log weights and minimizing the metaconflict
    pick out the same partitions (with the domain conflict held fixed)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_argmin_sets_coincide(self, seed):
        rng = np.random.default_rng(seed)
        f = Frame(4)
        evidence = [random_ssf(f, rng, i) for i in range(6)]
        mcfs, log_scores = [], []
        parts = list(product(range(3), repeat=6))
        for assignment in parts:
            part = Partition(assignment, 3)
            report = evaluate_partition(evidence, part, 0.0)
            mcfs.append(report.mcf)
            log_scores.append(
                sum(conflict_weight(c) for c in report.cluster_conflicts)
            )
        mcfs, log_scores = np.array(mcfs), np.array(log_scores)
        argmin_mcf = set(np.flatnonzero(mcfs <= mcfs.min() + 1e-12))
        argmin_log = set(np.flatnonzero(log_scores <= log_scores.min() + 1e-9))
        assert argmin_mcf == argmin_log


def refine(evidence: Sequence[SimpleSupport], partition: Partition) -> Partition:
    return refine_partition(evidence, partition, commonality_table(evidence))


# Far above the rounding error of a score, far below a real improvement.
NOISE = 1e-12
# refine_partition's least gain of a move, relative to max(1, |score|).
MOVE_MARGIN = 1e-12


def _accepts(score: float, best_score: float) -> bool:
    """refine_partition's acceptance rule."""
    return score < best_score - MOVE_MARGIN * max(1.0, abs(best_score))


def _reference_refine(
    evidence: Sequence[SimpleSupport], partition: Partition
) -> tuple[Partition, bool]:
    """The greedy loop of refine_partition, every candidate re-folded with combine.

    Also returns whether some candidate's improvement on the best score so
    far came within NOISE of the acceptance margin: a decision made on
    rounding error, which the same loop with other rounding may make the
    other way.  Ties fall far short of the margin and are decided alike.
    """
    allowed = sorted(set(partition.assignment))
    assignment = list(partition.assignment)
    conflicts = [
        cluster_conflict(evidence, [i for i, a in enumerate(assignment) if a == c])
        for c in range(partition.n_clusters)
    ]
    current = sum(conflict_weight(c) for c in conflicts)
    noisy = False
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
                margin = MOVE_MARGIN * max(1.0, abs(best_score))
                noisy = noisy or abs(best_score - score - margin) < NOISE
                if _accepts(score, best_score):
                    best_target, best_score = target, score
                    best_pair = (new_src, new_dst)
            if best_pair is not None:
                conflicts[source], conflicts[best_target] = best_pair
                assignment[m] = best_target
                current = best_score
                improved = True
    return Partition(tuple(assignment), partition.n_clusters), noisy


@st.composite
def refine_cases(draw, masses):
    """Evidence over a frame of 1-6 elements and a random starting partition."""
    frame = Frame(draw(st.integers(1, 6)))
    n = draw(st.integers(1, 14))
    evidence = [
        SimpleSupport(
            FocalSet(draw(st.integers(1, frame.full_mask)), frame), draw(masses), id=i
        )
        for i in range(n)
    ]
    n_clusters = draw(st.integers(1, 5))
    assignment = draw(st.lists(st.integers(0, n_clusters - 1), min_size=n, max_size=n))
    return evidence, Partition(tuple(assignment), n_clusters)


BELOW_ONE = st.floats(0.0, 0.9, exclude_min=True)
UP_TO_ONE = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


class TestRefinePartition:
    def test_never_increases_mcf_and_never_adds_clusters(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f = Frame(4)
            evidence = [random_ssf(f, rng, i) for i in range(8)]
            start = Partition(tuple(rng.integers(0, 4, size=8)), 4)
            refined = refine(evidence, start)
            before = evaluate_partition(evidence, start, 0.0).mcf
            after = evaluate_partition(evidence, refined, 0.0).mcf
            assert after <= before + 1e-12
            assert set(refined.assignment) <= set(start.assignment)

    def test_fixed_point_on_canonical_partition(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(5))
        part = canonical_partition(evidence, spec.frame())
        assert refine(evidence, part).assignment == part.assignment

    def test_repairs_a_single_misassignment(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(2))
        part = canonical_partition(evidence, spec.frame())
        broken = list(part.assignment)
        broken[0] = (broken[0] + 1) % 5  # evidence {1} moved off its element
        refined = refine(evidence, Partition(tuple(broken), 5))
        assert evaluate_partition(evidence, refined, 0.0).mcf <= 1e-12

    def test_no_move_decided_by_rounding_error(self):
        # Found by a seeded random search.  Piece 1 is on the whole frame and
        # conflicts with nothing, so moving it changes no cluster's conflict;
        # an absolute margin of 1e-15 still took that move, on a score
        # lowered by rounding error alone.
        f = Frame(2)
        pieces = [(2, 0.95), (3, 0.5), (2, 0.49791513242103913), (1, 0.4855361370737755),
                  (1, 0.95), (1, 0.9), (2, 0.38301974399769795)]
        evidence = [SimpleSupport(FocalSet(bits, f), m, id=i) for i, (bits, m) in enumerate(pieces)]
        refined = refine(evidence, Partition((0, 1, 1, 1, 0, 1, 1), 2))
        assert refined.assignment == (1, 1, 1, 0, 0, 0, 1)
        assert evaluate_partition(evidence, refined, 0.0).mcf == 0.0

    def test_length_mismatch(self):
        f = Frame(2)
        evidence = [ssf(f, [1], 0.5)]
        with pytest.raises(ValueError):
            refine_partition(evidence, Partition((0, 0), 1), commonality_table(evidence))

    @given(refine_cases(BELOW_ONE))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_combine_loop_below_mass_one(self, case):
        # Where the loop decides on rounding error (a candidate within
        # NOISE of the best score, ties included), the kernel's rounding may
        # decide otherwise; every other decision must agree.
        evidence, start = case
        expected, noisy = _reference_refine(evidence, start)
        assume(not noisy)
        assert refine(evidence, start) == expected

    @given(refine_cases(UP_TO_ONE))
    @settings(max_examples=300, deadline=None)
    def test_masses_of_one_never_worsen_or_add_clusters(self, case):
        # Near total conflict the kernel's signed sum keeps less relative
        # precision than combine, so the greedy path may differ from the
        # combine loop; the descent must still hold.
        evidence, start = case
        refined = refine(evidence, start)
        before = evaluate_partition(evidence, start, 0.0).mcf
        after = evaluate_partition(evidence, refined, 0.0).mcf
        assert after <= before + 1e-12
        assert set(refined.assignment) <= set(start.assignment)

    @given(refine_cases(UP_TO_ONE))
    @settings(max_examples=300, deadline=None)
    def test_kernel_conflicts_match_cluster_conflict(self, case):
        evidence, part = case
        kernel = kernel_conflicts(commonality_table(evidence), part)
        for c in range(part.n_clusters):
            members = part.members(c)
            assert abs(kernel[c] - cluster_conflict(evidence, members)) <= 1e-12
            if len(members) < 2:
                assert kernel[c] == 0.0

    def test_kernel_conflicts_of_singletons_and_total_conflict(self):
        f = Frame(3)
        evidence = [ssf(f, [1], 1.0), ssf(f, [2], 1.0), ssf(f, [3], 0.5)]
        kernel = kernel_conflicts(commonality_table(evidence), Partition((0, 0, 1), 3))
        assert kernel.tolist() == [WEIGHT_CLAMP, 0.0, 0.0]
