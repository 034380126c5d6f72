"""End-to-end runs, seeded batches, and trace emission.

A run wires the pieces together: generate (or accept) evidence, build the
conflict matrix, iterate the network while feeding back the gradually
determined cluster count, then score the extracted partition.  The
fixed-count mode drops the domain term and never consults the count
pipeline, reproducing the known-k baseline network.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from mcfnet.conflict import (
    McfReport,
    Partition,
    conflict_matrix,
    evaluate_partition,
    refine_partition,
)
from mcfnet.counts import CountState, PriorSpec, compute_count_state
from mcfnet.evidence import SimpleSupport, commonality_table
from mcfnet.network import (
    RESEAT_DELAY,
    coupling_matrix,
    entropy,
    extract_partition,
    has_converged,
    init_state,
    is_crisp,
    is_stalled,
    reseat_stalled_row,
    step,
)
from mcfnet.problems import ProblemSpec, generate, seed_streams

MODES = ("unknown-k", "fixed-k")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs except its seed.

    n_columns() is the one column count: the grid's width and the size of
    the count distribution.  max_iterations caps the network's iterations.
    """

    problem: ProblemSpec = ProblemSpec()
    prior: PriorSpec = PriorSpec()
    max_iterations: int = 1000
    mode: str = "unknown-k"
    fixed_k: int = 5
    columns: int | None = None
    trace_dir: str | Path | None = None
    snapshot_every: int = 0
    refine: bool = True  # single-move descent on the extracted partition

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "fixed-k" and not 2 <= self.fixed_k <= self.problem.n_evidence:
            raise ValueError("fixed_k must be in [2, evidence count]")
        if self.columns is not None and self.columns < 2:
            raise ValueError("columns must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    def n_columns(self) -> int:
        if self.mode == "fixed-k":
            return self.fixed_k
        if self.columns is not None:
            return self.columns
        return self.problem.frame_size + 1


@dataclass
class RunResult:
    """Outcome of one run plus the recorded trace, if any."""

    seed: int
    mode: str
    partition: Partition
    report: McfReport
    network_partition: Partition
    network_mcf: float
    final_c0: float
    iterations: int
    crisp: bool
    cluster_count: int
    final_posterior: np.ndarray | None
    final_gd: np.ndarray | None
    elapsed_s: float
    trace_rows: list[dict] = field(default_factory=list)
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    trace_files: list[Path] = field(default_factory=list)


def _trace_row(
    t: int,
    raw: float,
    alpha: float,
    evidence: Sequence[SimpleSupport],
    partition: Partition,
    count_state: CountState | None,
) -> dict:
    c0 = count_state.c0 if count_state is not None else 0.0
    report = evaluate_partition(evidence, partition, 0.0)
    row = {
        "t": t,
        "entropy": raw,
        "alpha": alpha,
        "mcf": report.mcf,
        "c0": c0,
    }
    for i, c in enumerate(report.cluster_conflicts, start=1):
        row[f"c_{i}"] = c
    if count_state is not None:
        for i, x in enumerate(count_state.supports, start=1):
            row[f"support_{i}"] = float(x)
        for r, x in enumerate(count_state.at_least, start=1):
            row[f"at_least_{r}"] = float(x)
        for r, x in enumerate(count_state.posterior, start=1):
            row[f"posterior_{r}"] = float(x)
        for r, x in enumerate(count_state.gd, start=1):
            row[f"gd_{r}"] = float(x)
    return row


def run(
    config: RunConfig,
    seed: int = 0,
    evidence: Sequence[SimpleSupport] | None = None,
) -> RunResult:
    """Execute one clustering run to convergence (or the iteration cap).

    The run seed drives both the random problem masses and the init noise
    through seed_streams; pass pre-built evidence to skip generation.
    In fixed-k mode, fixed_k above the evidence count raises ValueError.
    """
    mass_rng, noise_rng = seed_streams(seed)
    if evidence is None:
        evidence = generate(config.problem, mass_rng)
    evidence = list(evidence)
    n = len(evidence)
    if config.mode == "fixed-k" and config.fixed_k > n:
        raise ValueError("fixed_k must be in [2, evidence count]")
    r_cols = config.n_columns()
    unknown = config.mode == "unknown-k"

    tracing = config.trace_dir is not None
    weights = conflict_matrix(evidence)
    coupling = coupling_matrix(weights)
    # One table serves the count layer and refinement.
    table = commonality_table(evidence) if unknown or config.refine else None
    masses = np.array([e.mass for e in evidence])
    state = init_state(n, r_cols, noise_rng)

    started = time.perf_counter()
    trace_rows: list[dict] = []
    snapshots: list[tuple[int, np.ndarray]] = []
    count_state: CountState | None = None
    while True:
        raw, alpha = entropy(state)
        if unknown:
            count_state = compute_count_state(evidence, state, config.prior, alpha, table)
        if tracing:
            trace_rows.append(
                _trace_row(state.t, raw, alpha, evidence,
                           extract_partition(state), count_state)
            )
        if tracing and config.snapshot_every and state.t % config.snapshot_every == 0:
            snapshots.append((state.t, state.v.copy()))
        if has_converged(state, config.max_iterations):
            break
        gd = count_state.gd if unknown else None
        previous_u = state.u  # step leaves state unchanged
        state = step(state, coupling, gd, alpha)
        if state.t > RESEAT_DELAY and is_stalled(previous_u, state):
            reseated = reseat_stalled_row(state, weights, masses, gd)
            if reseated is not None:
                state = reseated
    elapsed = time.perf_counter() - started

    network_partition = extract_partition(state)
    network_mcf = evaluate_partition(evidence, network_partition, 0.0).mcf
    if config.refine:
        partition = refine_partition(evidence, network_partition, table)
    else:
        partition = network_partition
    final_c0 = count_state.c0 if unknown and count_state is not None else 0.0
    report = evaluate_partition(evidence, partition, 0.0)
    result = RunResult(
        seed=seed,
        mode=config.mode,
        partition=partition,
        report=report,
        network_partition=network_partition,
        network_mcf=network_mcf,
        final_c0=final_c0,
        iterations=state.t,
        crisp=is_crisp(state),
        cluster_count=partition.nonempty_count(),
        final_posterior=count_state.posterior.copy() if count_state else None,
        final_gd=count_state.gd.copy() if count_state else None,
        elapsed_s=elapsed,
        trace_rows=trace_rows,
        snapshots=snapshots,
    )
    if tracing:
        result.trace_files = emit_trace(result, Path(config.trace_dir))
    return result


def emit_trace(result: RunResult, trace_dir: str | Path) -> list[Path]:
    """Write the recorded per-iteration scalars and grid snapshots as CSV files."""
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    tag = f"{result.mode}_seed{result.seed}"
    if result.trace_rows:
        path = trace_dir / f"scalars_{tag}.csv"
        fieldnames = list(result.trace_rows[-1].keys())
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(result.trace_rows)
        written.append(path)
    for t, grid in result.snapshots:
        path = trace_dir / f"grid_{tag}_t{t:04d}.csv"
        np.savetxt(path, grid, delimiter=",")
        written.append(path)
    return written


@dataclass
class BatchSummary:
    """Per-mode statistics over a seeded batch, plus the raw per-run records."""

    n_seeds: int
    seeds: list[int]
    per_mode: dict[str, dict]
    runs: list[dict]
    failures: list[dict]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_seeds": self.n_seeds,
                "seeds": self.seeds,
                "per_mode": self.per_mode,
                "runs": self.runs,
                "failures": self.failures,
            },
            indent=2,
        )

    def human_table(self) -> str:
        lines = [f"batch of {self.n_seeds} seeds: {self.seeds}"]
        for mode, stats in self.per_mode.items():
            lines.append(f"\n[{mode}]")
            for key, val in stats.items():
                lines.append(f"  {key}: {val}")
        if self.failures:
            lines.append(f"\nfailures: {self.failures}")
        return "\n".join(lines) + "\n"


def _histogram(records: list[dict], key: str) -> dict[str, int]:
    """How many records hold each value of key."""
    return dict(sorted(Counter(str(r[key]) for r in records).items()))


def _mode_stats(records: list[dict]) -> dict:
    """Tables 1-3 analogue statistics for one mode's successful runs."""
    if not records:
        return {"n_runs": 0}
    mcfs = [r["mcf"] for r in records]
    order = np.argsort(mcfs, kind="stable")
    best4 = [records[i] for i in order[:4]]
    degenerate = len(records) < 4
    return {
        "n_runs": len(records),
        "mean_iterations": float(np.mean([r["iterations"] for r in records])),
        "mean_mcf": float(np.mean(mcfs)),
        "mean_network_mcf": float(np.mean([r["network_mcf"] for r in records])),
        "cluster_count_histogram": _histogram(records, "cluster_count"),
        "network_cluster_count_histogram": _histogram(records, "network_cluster_count"),
        "best_of_4_mcf": float(min(r["mcf"] for r in best4)),
        "mean_of_4_mcf": float(np.mean([r["mcf"] for r in best4])),
        "mcf_per_cluster": float(
            np.mean([r["mcf"] / r["cluster_count"] for r in best4])
        ),
        "mcf_per_evidence": float(
            np.mean([r["mcf"] / r["n_evidence"] for r in best4])
        ),
        "crisp_runs": sum(1 for r in records if r["crisp"]),
        "mean_elapsed_s": float(np.mean([r["elapsed_s"] for r in records])),
        "degenerate_statistics": degenerate,
    }


def batch(
    config: RunConfig,
    n_seeds: int,
    base_seed: int = 0,
    output_dir: str | Path | None = None,
) -> BatchSummary:
    """Run n_seeds seeded problems in both modes and summarize.

    Matched seeds: the unknown-k and fixed-k runs of one seed share the
    same random masses.  Per-run failures, an invalid config for one mode
    among them, are recorded without aborting the batch.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    seeds = [base_seed + i for i in range(n_seeds)]
    runs: list[dict] = []
    failures: list[dict] = []
    for mode in MODES:
        for seed in seeds:
            try:
                result = run(replace(config, mode=mode), seed=seed)
            except Exception as exc:  # record, keep going
                failures.append({"mode": mode, "seed": seed, "error": str(exc)})
                continue
            runs.append(
                {
                    "mode": mode,
                    "seed": seed,
                    "mcf": result.report.mcf,
                    "network_mcf": result.network_mcf,
                    "final_c0": result.final_c0,
                    "cluster_count": result.cluster_count,
                    "network_cluster_count": result.network_partition.nonempty_count(),
                    "iterations": result.iterations,
                    "crisp": result.crisp,
                    "n_evidence": len(result.partition.assignment),
                    "elapsed_s": result.elapsed_s,
                    "assignment": list(result.partition.assignment),
                }
            )
    per_mode = {
        mode: _mode_stats([r for r in runs if r["mode"] == mode]) for mode in MODES
    }
    summary = BatchSummary(
        n_seeds=n_seeds, seeds=seeds, per_mode=per_mode, runs=runs, failures=failures
    )
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / "summary.json").write_text(summary.to_json() + "\n")
        (output_dir / "summary.txt").write_text(summary.human_table())
    return summary
