"""Benchmark problem generation and the analytic zero-conflict partition."""

from __future__ import annotations

import numpy as np
import pytest

from mcfnet.conflict import evaluate_partition
from mcfnet.evidence import Frame, pairwise_conflict
from mcfnet.problems import (
    ProblemSpec,
    canonical_partition,
    generate,
    load_evidence,
    save_evidence,
    seed_streams,
)


class TestProblemSpec:
    def test_evidence_count(self):
        assert ProblemSpec(frame_size=5).n_evidence == 31
        assert ProblemSpec(frame_size=1).n_evidence == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(frame_size=0)
        with pytest.raises(ValueError):
            ProblemSpec(mass_mode="gaussian")


class TestGenerate:
    def test_all_nonempty_subsets_once(self):
        evidence = generate(ProblemSpec(), np.random.default_rng(0))
        assert len(evidence) == 31
        assert [e.focal.bits for e in evidence] == list(range(1, 32))
        assert [e.id for e in evidence] == list(range(31))

    def test_masses_open_interval(self):
        evidence = generate(ProblemSpec(), np.random.default_rng(4))
        assert all(0.0 < e.mass < 1.0 for e in evidence)

    def test_ones_mode(self):
        evidence = generate(ProblemSpec(mass_mode="ones"), np.random.default_rng(0))
        assert all(e.mass == 1.0 for e in evidence)

    def test_seed_determinism(self):
        a = generate(ProblemSpec(), seed_streams(7)[0])
        b = generate(ProblemSpec(), seed_streams(7)[0])
        assert [e.mass for e in a] == [e.mass for e in b]
        c = generate(ProblemSpec(), seed_streams(8)[0])
        assert [e.mass for e in a] != [e.mass for e in c]

    def test_explicit_rng_stream(self):
        rng = np.random.default_rng(3)
        a = generate(ProblemSpec(), rng)
        b = generate(ProblemSpec(), np.random.default_rng(3))
        assert [e.mass for e in a] == [e.mass for e in b]

    def test_frame_size_one(self):
        evidence = generate(ProblemSpec(frame_size=1), np.random.default_rng(0))
        assert len(evidence) == 1
        assert evidence[0].focal.elements() == (1,)


class TestCanonicalPartition:
    def test_smallest_element_rule(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(0))
        part = canonical_partition(evidence, spec.frame())
        for e, cluster in zip(evidence, part.assignment):
            assert min(e.focal.elements()) == cluster + 1

    def test_cluster_sizes(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(0))
        part = canonical_partition(evidence, spec.frame())
        assert part.cluster_sizes() == (16, 8, 4, 2, 1)
        assert part.nonempty_count() == 5

    def test_no_conflict_within_any_cluster(self):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(9))
        part = canonical_partition(evidence, spec.frame())
        for cluster in range(5):
            members = part.members(cluster)
            for i in members:
                for j in members:
                    assert pairwise_conflict(evidence[i], evidence[j]) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_metaconflict_is_exactly_zero(self, seed):
        spec = ProblemSpec()
        evidence = generate(spec, np.random.default_rng(seed))
        part = canonical_partition(evidence, spec.frame())
        assert evaluate_partition(evidence, part, 0.0).mcf <= 1e-12


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        evidence = generate(ProblemSpec(), np.random.default_rng(12))
        path = tmp_path / "problem.txt"
        save_evidence(path, evidence)
        loaded = load_evidence(path)
        assert len(loaded) == len(evidence)
        for a, b in zip(evidence, loaded):
            assert a.id == b.id
            assert a.focal.bits == b.focal.bits
            assert a.mass == b.mass
            assert a.frame == b.frame

    def test_explicit_frame_override(self, tmp_path):
        evidence = generate(ProblemSpec(frame_size=3), np.random.default_rng(0))
        path = tmp_path / "problem.txt"
        save_evidence(path, evidence)
        loaded = load_evidence(path, frame=Frame(4))
        assert all(e.frame.size == 4 for e in loaded)

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_evidence(tmp_path / "x.txt", [])

    def test_file_without_evidence_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# frame_size=5\n")
        with pytest.raises(ValueError, match="no evidence"):
            load_evidence(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0, 1 2\n")
        with pytest.raises(ValueError):
            load_evidence(path)
