"""End-to-end runs, batches, traces, and mode isolation."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcfnet.harness as harness
from mcfnet.conflict import evaluate_partition
from mcfnet.evidence import FocalSet, Frame, SimpleSupport
from mcfnet.harness import MODES, BatchSummary, RunConfig, batch, run
from mcfnet.problems import MASS_MODES, ProblemSpec, generate, seed_streams

TIMING_FIELDS = ("elapsed_s", "mean_elapsed_s")


def strip_timing(summary: BatchSummary) -> dict:
    data = json.loads(summary.to_json())
    for record in data["runs"]:
        for field in TIMING_FIELDS:
            record.pop(field, None)
    for stats in data["per_mode"].values():
        for field in TIMING_FIELDS:
            stats.pop(field, None)
    return data


@pytest.fixture(scope="module")
def unknown_result(tmp_path_factory):
    config = RunConfig(
        mode="unknown-k",
        trace_dir=tmp_path_factory.mktemp("trace_unknown"),
        snapshot_every=50,
    )
    return run(config, seed=0)


@pytest.fixture(scope="module")
def fixed_result():
    return run(RunConfig(mode="fixed-k", fixed_k=5), seed=0)


@pytest.fixture
def count_calls(monkeypatch):
    """The calls a run makes to the count pipeline, as recorded argument tuples."""
    calls = []
    original = harness.compute_count_state

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "compute_count_state", recording)
    return calls


class TestRunConfig:
    def test_default_columns_is_frame_plus_one(self):
        assert RunConfig().n_columns() == 6
        assert RunConfig(columns=7).n_columns() == 7
        assert RunConfig(mode="fixed-k", fixed_k=5).n_columns() == 5

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="sideways-k")
        with pytest.raises(ValueError):
            RunConfig(mode="fixed-k", fixed_k=0)
        with pytest.raises(ValueError):
            RunConfig(mode="fixed-k", fixed_k=32)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "fixed-k", "fixed_k": 1},
        {"columns": 1},
        {"columns": 0},
    ])
    def test_fewer_than_two_columns_rejected(self, kwargs):
        # init_state starts every neuron at u0 * atanh(2/R - 1), which is
        # finite only for R >= 2 columns; the config says so before a run.
        with pytest.raises(ValueError, match="fixed_k|columns"):
            RunConfig(**kwargs)

    def test_iteration_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iterations"):
            RunConfig(max_iterations=0)

    def test_negative_snapshot_period_rejected(self):
        # A negative period would snapshot where t % |period| == 0.
        with pytest.raises(ValueError, match="snapshot_every"):
            RunConfig(snapshot_every=-3)


class TestRun:
    def test_unknown_k_converges_crisp(self, unknown_result):
        r = unknown_result
        assert r.crisp
        assert r.iterations < RunConfig().max_iterations
        assert 4 <= r.cluster_count <= 6
        assert r.final_gd is not None and r.final_gd.max() > 0.99

    def test_fixed_k_converges_crisp(self, fixed_result):
        r = fixed_result
        assert r.crisp
        assert r.partition.n_clusters == 5
        assert r.final_posterior is None and r.final_gd is None
        assert r.final_c0 == 0.0

    def test_report_matches_engine(self, unknown_result):
        mass_rng, _ = seed_streams(0)
        evidence = generate(ProblemSpec(), mass_rng)
        report = evaluate_partition(evidence, unknown_result.partition, 0.0)
        assert abs(report.mcf - unknown_result.report.mcf) <= 1e-12

    def test_refinement_never_hurts(self, unknown_result):
        assert unknown_result.report.mcf <= unknown_result.network_mcf + 1e-12
        assert set(unknown_result.partition.assignment) <= set(
            unknown_result.network_partition.assignment
        )

    def test_cluster_count_is_nonempty_count(self, unknown_result):
        assert (
            unknown_result.cluster_count
            == unknown_result.partition.nonempty_count()
        )

    def test_iteration_cap_returns_non_crisp(self):
        config = RunConfig(max_iterations=1)
        result = run(config, seed=0)
        assert result.iterations == 1
        assert not result.crisp

    def test_run_determinism(self):
        config = RunConfig(max_iterations=40)
        a = run(config, seed=3)
        b = run(config, seed=3)
        assert a.partition.assignment == b.partition.assignment
        assert a.report.mcf == b.report.mcf
        assert a.iterations == b.iterations

    def test_explicit_evidence_skips_generation(self):
        evidence = generate(ProblemSpec(), np.random.default_rng(99))
        config = RunConfig(max_iterations=5)
        result = run(config, seed=0, evidence=evidence)
        assert len(result.partition.assignment) == 31

    def test_fixed_k_above_explicit_evidence_count_rejected(self):
        # The config checks fixed_k against the generated problem's size
        # only; 7 given pieces cannot fill 20 columns.
        evidence = generate(ProblemSpec(frame_size=3), np.random.default_rng(0))
        config = RunConfig(mode="fixed-k", fixed_k=20, max_iterations=5)
        with pytest.raises(ValueError, match=r"fixed_k must be in \[2, evidence count\]"):
            run(config, seed=0, evidence=evidence)

    def test_fixed_k_never_consults_count_pipeline(self, count_calls):
        run(RunConfig(mode="fixed-k", fixed_k=5, max_iterations=30), seed=1)
        assert count_calls == []

    def test_unknown_k_consults_count_pipeline_every_iteration(self, count_calls):
        result = run(RunConfig(max_iterations=10), seed=1)
        assert len(count_calls) == result.iterations + 1

    def test_all_mass_one_problem_runs(self):
        # Every piece at mass 1 once drove combine's masses off 1 by more
        # than its tolerance, so this run raised ValueError.
        result = run(RunConfig(problem=ProblemSpec(mass_mode="ones")), 0)
        assert len(result.partition.assignment) == 31
        assert 0.0 <= result.report.mcf <= 1.0

    def test_unknown_k_on_a_frame_of_sixteen(self):
        frame = Frame(16)
        evidence = [
            SimpleSupport(FocalSet.from_elements(frame, elements), mass, id=j)
            for j, (elements, mass) in enumerate([
                ([1], 0.8), ([1, 9], 0.6), ([1, 16], 0.7),
                ([2], 0.8), ([2, 9], 0.5), ([2, 12, 16], 0.6),
            ])
        ]
        config = RunConfig(problem=ProblemSpec(frame_size=16), columns=3)
        result = run(config, seed=0, evidence=evidence)
        assert len(result.partition.assignment) == 6
        assert result.report.mcf == 0.0

    def test_unknown_k_rejects_a_frame_above_the_table_cap(self):
        evidence = [SimpleSupport(FocalSet(1, Frame(17)), 0.5),
                    SimpleSupport(FocalSet(2, Frame(17)), 0.5)]
        config = RunConfig(problem=ProblemSpec(frame_size=17), columns=2)
        with pytest.raises(ValueError, match="at most 16"):
            run(config, seed=0, evidence=evidence)

    def test_fixed_k_refinement_rejects_a_frame_above_the_table_cap(self):
        # Refinement scores moves from the commonality table, so a fixed-k
        # run builds it too when it refines.
        evidence = [SimpleSupport(FocalSet(1, Frame(17)), 0.5),
                    SimpleSupport(FocalSet(2, Frame(17)), 0.5)]
        config = RunConfig(problem=ProblemSpec(frame_size=17), mode="fixed-k", fixed_k=2)
        with pytest.raises(ValueError, match="at most 16"):
            run(config, seed=0, evidence=evidence)

    def test_fixed_k_without_refinement_runs_above_the_table_cap(self):
        evidence = [SimpleSupport(FocalSet(1, Frame(17)), 0.5),
                    SimpleSupport(FocalSet(2, Frame(17)), 0.5)]
        config = RunConfig(problem=ProblemSpec(frame_size=17), mode="fixed-k",
                           fixed_k=2, refine=False)
        result = run(config, seed=0, evidence=evidence)
        assert len(result.partition.assignment) == 2
        assert result.partition == result.network_partition


class TestRunFuzz:
    @given(
        frame_size=st.integers(1, 6),
        mass_mode=st.sampled_from(MASS_MODES),
        columns=st.integers(2, 8),
        mode=st.sampled_from(MODES),
        cap=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=800, deadline=None)
    def test_valid_result_or_documented_error(
        self, frame_size, mass_mode, columns, mode, cap, seed
    ):
        problem = ProblemSpec(frame_size=frame_size, mass_mode=mass_mode)
        kwargs = dict(problem=problem, max_iterations=cap,
                      mode=mode, fixed_k=columns, columns=columns)
        if mode == "fixed-k" and columns > problem.n_evidence:
            with pytest.raises(ValueError, match="fixed_k"):
                RunConfig(**kwargs)
            return
        config = RunConfig(**kwargs)
        result = run(config, seed)
        n = problem.n_evidence
        assert len(result.partition.assignment) == n
        assert len(result.network_partition.assignment) == n
        assert 0.0 <= result.report.mcf <= 1.0
        assert 0.0 <= result.network_mcf <= 1.0
        assert result.cluster_count <= columns
        assert result.iterations <= cap
        if not result.crisp:
            assert result.iterations == cap
        elif result.iterations == cap:
            # Crisp exactly at the cap: a higher cap must stop there too.
            longer = run(replace(config, max_iterations=cap + 1), seed)
            assert longer.iterations == cap


class TestTrace:
    def test_scalar_columns(self, unknown_result):
        rows = unknown_result.trace_rows
        assert rows[0]["t"] == 0
        assert rows[0]["alpha"] == pytest.approx(1.0, abs=1e-12)
        assert rows[-1]["alpha"] < 0.01
        for key in ("entropy", "mcf", "c0", "c_1", "support_1",
                    "at_least_1", "posterior_1", "gd_1"):
            assert key in rows[0]

    def test_gd_equals_posterior_at_start(self, unknown_result):
        row = unknown_result.trace_rows[0]
        for r in range(1, 7):
            assert row[f"gd_{r}"] == pytest.approx(row[f"posterior_{r}"], abs=1e-12)

    def test_some_existence_support_dies_early(self, unknown_result):
        # More columns than clusters: at least one column's existence
        # support collapses and stays collapsed.
        rows = unknown_result.trace_rows
        final = [rows[-1][f"support_{i}"] for i in range(1, 7)]
        assert min(final) < 0.1
        dead = int(np.argmin(final)) + 1
        tail = [row[f"support_{dead}"] for row in rows[len(rows) // 2:]]
        assert max(tail) < 0.5

    def test_trace_files_written(self, unknown_result):
        names = [p.name for p in unknown_result.trace_files]
        assert any(n.startswith("scalars_unknown-k_seed0") for n in names)
        assert any(n.startswith("grid_unknown-k_seed0_t0000") for n in names)
        scalar_path = unknown_result.trace_files[0]
        with scalar_path.open() as fh:
            reader = csv.DictReader(fh)
            first = next(reader)
        assert float(first["alpha"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("config", [
        RunConfig(max_iterations=60),
        RunConfig(problem=ProblemSpec(mass_mode="ones"), max_iterations=60),
        RunConfig(mode="fixed-k", fixed_k=5, max_iterations=60),
        RunConfig(mode="fixed-k", fixed_k=5, max_iterations=60, refine=False),
    ], ids=["unknown-k", "unknown-k-mass-one", "fixed-k", "fixed-k-no-table"])
    def test_rows_score_as_evaluate_partition(self, config, tmp_path, monkeypatch):
        # Rows are scored on the run's commonality table when it has one.
        partitions = []
        original = harness.extract_partition

        def recording(state):
            partitions.append(original(state))
            return partitions[-1]

        monkeypatch.setattr(harness, "extract_partition", recording)
        seed = 2
        result = run(replace(config, trace_dir=tmp_path), seed)
        evidence = generate(config.problem, seed_streams(seed)[0])
        assert len(result.trace_rows) == result.iterations + 1
        for row, partition in zip(result.trace_rows, partitions):
            report = evaluate_partition(evidence, partition)
            assert abs(row["mcf"] - report.mcf) <= 1e-12
            for i, c in enumerate(report.cluster_conflicts, start=1):
                assert abs(row[f"c_{i}"] - c) <= 1e-12

    def test_snapshot_grid_shape(self, unknown_result):
        grid_path = next(
            p for p in unknown_result.trace_files if p.name.startswith("grid_")
        )
        grid = np.loadtxt(grid_path, delimiter=",")
        assert grid.shape == (31, 6)


@pytest.fixture(scope="module")
def small_batch(tmp_path_factory):
    out = tmp_path_factory.mktemp("batch")
    return batch(RunConfig(), n_seeds=2, base_seed=0, output_dir=out), out


class TestBatch:
    def test_summary_field_names(self, small_batch):
        summary, _ = small_batch
        for mode in ("unknown-k", "fixed-k"):
            stats = summary.per_mode[mode]
            for field in (
                "mean_iterations",
                "cluster_count_histogram",
                "best_of_4_mcf",
                "mean_of_4_mcf",
                "mcf_per_cluster",
                "mcf_per_evidence",
            ):
                assert field in stats

    def test_network_cluster_count_histogram(self, small_batch):
        summary, _ = small_batch
        for mode in MODES:
            records = [r for r in summary.runs if r["mode"] == mode]
            expected: dict[str, int] = {}
            for r in records:
                key = str(r["network_cluster_count"])
                expected[key] = expected.get(key, 0) + 1
            stats = summary.per_mode[mode]
            assert stats["network_cluster_count_histogram"] == expected
            assert sum(stats["network_cluster_count_histogram"].values()) == len(records)
            for r in records:
                assert r["cluster_count"] <= r["network_cluster_count"]

    def test_network_and_refined_mcf_side_by_side(self, small_batch):
        summary, _ = small_batch
        for mode in ("unknown-k", "fixed-k"):
            stats = summary.per_mode[mode]
            assert 0.0 <= stats["mean_mcf"] <= stats["mean_network_mcf"] <= 1.0

    def test_small_batch_flags_degenerate_statistics(self, small_batch):
        summary, _ = small_batch
        assert summary.per_mode["unknown-k"]["degenerate_statistics"]

    def test_matched_seeds_share_masses(self, small_batch):
        summary, _ = small_batch
        by_mode = {
            (r["mode"], r["seed"]): r["n_evidence"] for r in summary.runs
        }
        assert ("unknown-k", 0) in by_mode and ("fixed-k", 0) in by_mode

    def test_output_files(self, small_batch):
        _, out = small_batch
        data = json.loads((out / "summary.json").read_text())
        assert data["n_seeds"] == 2
        assert "unknown-k" in data["per_mode"]
        assert "batch of 2 seeds" in (out / "summary.txt").read_text()

    def test_rerun_is_bit_identical_modulo_timing(self, small_batch):
        summary, _ = small_batch
        again = batch(RunConfig(), n_seeds=2, base_seed=0)
        assert strip_timing(summary) == strip_timing(again)

    def test_invalid_fixed_k_is_a_per_seed_failure(self):
        # A frame of 2 has 3 pieces of evidence, fewer than the default k of
        # 5: the fixed-k runs fail, the unknown-k runs still happen.
        summary = batch(RunConfig(problem=ProblemSpec(frame_size=2)), n_seeds=2)
        assert summary.per_mode["unknown-k"]["n_runs"] == 2
        assert summary.per_mode["fixed-k"] == {"n_runs": 0}
        assert summary.failures == [
            {"mode": "fixed-k", "seed": seed,
             "error": "fixed_k must be in [2, evidence count]"}
            for seed in (0, 1)
        ]

    def test_n_seeds_validation(self):
        with pytest.raises(ValueError):
            batch(RunConfig(), n_seeds=0)
