"""Benchmark of ``mcfnet.run`` on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-f5-unknown --seed 1 --seconds 55 --trace 0

The benchmark is a closed loop with one caller.  It generates problems from
consecutive problem seeds (problem i of workload seed s has seed
``s * SEED_STRIDE + i``; none is skipped), passes each to ``mcfnet.run`` as
explicit evidence, checks every output, and stops after ``--seconds`` of run
time.  Each run is also stated as a cost: its time over that of a fixed
reference kernel timed around it (see reference.py), which holds still
while the speed of a shared host drifts.

``--trace 0`` reports the end-to-end metrics of that untraced sweep, and
``setup_s`` measured in fresh processes.  ``--trace 1`` gives the untraced
sweep UNTRACED_SHARE of the time, repeats its problem seeds with every call
into the library's layers timed (see spans.py), and reports the per-layer
metrics.  Every metric is printed on its own line first, including those
BENCHMARK.json does not list; the last line of standard output is one JSON
object with the listed ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SEED_STRIDE = 1_000_000
SETUP_PROCESSES = 7
SETUP_TIMEOUT_S = 60
# With --trace 1, the untraced pass gets this share of --seconds and the
# traced pass repeats the same problem seeds.
UNTRACED_SHARE = 0.4
TAIL_BEYOND = 10
MCF_TOL = 1e-12
SPAN_GAP = "child spans overlap or leave their parent span"


def load_library():
    """Import mcfnet from this checkout's src/, never from anywhere else."""
    if not (SRC / "mcfnet" / "__init__.py").is_file():
        raise SystemExit(f"mcfnet sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcfnet

    if Path(mcfnet.__file__).resolve().parent != SRC / "mcfnet":
        raise SystemExit(f"imported mcfnet from {mcfnet.__file__}, not from {SRC}")
    return mcfnet


@dataclass
class Outcome:
    """One attempted run: its wall time and cost, its result, and what went wrong."""

    seed: int
    ms: float = 0.0
    cost: float = 0.0
    generate_ms: float = 0.0
    result: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def check(mcfnet, workload, evidence, reference_partition, result) -> list[str]:
    """Every failed output check of one run, as messages."""
    problems = []
    n = len(evidence)
    if len(result.partition.assignment) != n or len(result.network_partition.assignment) != n:
        problems.append("partition length differs from the evidence count")
        return problems
    recomputed = mcfnet.evaluate_partition(evidence, result.partition).mcf
    if abs(recomputed - result.report.mcf) > MCF_TOL:
        problems.append(f"reported mcf {result.report.mcf!r} but evaluation gives {recomputed!r}")
    for label, value in (("mcf", result.report.mcf), ("network mcf", result.network_mcf)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label} {value!r} outside [0, 1]")
    if result.cluster_count > workload.config.n_columns():
        problems.append(f"{result.cluster_count} clusters but {workload.config.n_columns()} columns")
    reference_mcf = mcfnet.evaluate_partition(evidence, reference_partition).mcf
    if reference_mcf != 0.0:
        problems.append(f"reference partition scores {reference_mcf!r}, not 0")
    return problems


def same_result(a, b) -> bool:
    return (
        a.partition == b.partition
        and a.network_partition == b.network_partition
        and a.report.mcf == b.report.mcf
        and a.iterations == b.iterations
    )


def timed_run(mcfnet, workload, seed, evidence, tracer):
    """One call of mcfnet.run: (wall ms, result or None, error or None)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            result = mcfnet.run(workload.config, seed, evidence=evidence)
        else:
            tracer.clear()
            result = tracer.span("harness.run", mcfnet.run, workload.config, seed, evidence=evidence)
    except Exception as exc:  # recorded with its seed; the sweep goes on
        return (time.perf_counter() - started) * 1000.0, None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - started) * 1000.0, result, None


def sweep(mcfnet, workload, workload_seed, budget_s=None, count=None, tracer=None, after_run=None):
    """Run problem seeds in order until budget_s of run time is spent, or count problems.

    The reference kernel is timed right before and right after each run;
    the run's cost is its time over the mean of the two.  after_run, if
    given, is called with the run time spent so far.
    """
    outcomes: list[Outcome] = []
    spent = 0.0
    while (len(outcomes) < count) if count is not None else (not outcomes or spent < budget_s):
        outcome = Outcome(seed=workload_seed * SEED_STRIDE + len(outcomes))
        outcomes.append(outcome)
        started = time.perf_counter()
        evidence, reference_partition = workload.make(outcome.seed)
        outcome.generate_ms = (time.perf_counter() - started) * 1000.0
        before = reference.time_ms()
        outcome.ms, outcome.result, outcome.error = timed_run(mcfnet, workload, outcome.seed, evidence, tracer)
        outcome.cost = outcome.ms / ((before + reference.time_ms()) / 2.0)
        spent += outcome.ms / 1000.0
        if outcome.error is None:
            if tracer is not None:
                outcome.layers = layer_metrics(tracer, outcome.result, outcome.generate_ms)
                if not tracer.accounts_for(0):
                    outcome.problems.append(SPAN_GAP)
            outcome.problems += check(mcfnet, workload, evidence, reference_partition, outcome.result)
        if after_run is not None:
            after_run(spent)
    return outcomes


def layer_metrics(tracer, result, generate_ms: float) -> dict[str, float]:
    """Per-layer counts and times of one traced run, whose span is tracer.spans[0].

    refine_moves counts the pieces of evidence that refinement left in
    another cluster than the network put them in.
    """
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    m = {
        "counts.meaningless_columns": 0,
        "evidence.combine_focal_max": 0,
        "evidence.total_conflict_events": 0,
        "conflict.refine_candidates": 0,
        "network.stall_events": 0,
        "network.reseats": 0,
    }
    for i in tracer.tree(0):
        span = tracer.spans[i]
        calls[span.name] = calls.get(span.name, 0) + 1
        ms[span.name] = ms.get(span.name, 0.0) + span.ms
        if span.name == "counts.compute" and span.note:
            m["counts.meaningless_columns"] += span.note
        elif span.name == "evidence.combine":
            if span.note is not None:
                m["evidence.combine_focal_max"] = max(m["evidence.combine_focal_max"], span.note)
            if span.error == "TotalConflictError":
                m["evidence.total_conflict_events"] += 1
        elif span.name == "conflict.cluster_conflict":
            if tracer.spans[span.parent].name == "conflict.refine":
                m["conflict.refine_candidates"] += 1
        elif span.name == "network.stall_check" and span.note:
            m["network.stall_events"] += 1
        elif span.name == "network.reseat" and span.note:
            m["network.reseats"] += 1
    moved = sum(a != b for a, b in zip(result.network_partition.assignment, result.partition.assignment))
    m.update({
        "counts.calls": calls.get("counts.compute", 0),
        "counts.ms": ms.get("counts.compute", 0.0),
        "counts.existence_calls": calls.get("counts.existence", 0),
        "counts.existence_ms": ms.get("counts.existence", 0.0),
        "evidence.combine_calls": calls.get("evidence.combine", 0),
        "evidence.combine_ms": ms.get("evidence.combine", 0.0),
        "conflict.refine_ms": ms.get("conflict.refine", 0.0),
        "conflict.refine_moves": moved,
        "conflict.matrix_ms": ms.get("conflict.matrix", 0.0),
        "conflict.evaluate_ms": ms.get("conflict.evaluate", 0.0),
        "problems.generate_ms": generate_ms,
        "network.step_calls": calls.get("network.step", 0),
        "network.step_ms": ms.get("network.step", 0.0),
        "network.entropy_ms": ms.get("network.entropy", 0.0),
        "network.converge_ms": ms.get("network.converge", 0.0),
        "network.init_ms": ms.get("network.init", 0.0),
        "network.stall_checks": calls.get("network.stall_check", 0),
        "network.stabilizer_ms": ms.get("network.stall_check", 0.0) + ms.get("network.reseat", 0.0),
        "harness.run_ms": tracer.spans[0].ms,
        "harness.loop_ms": result.elapsed_s * 1000.0,
        "harness.self_ms": tracer.self_ms(0),
    })
    return m


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class SetupTimer:
    """Set-up time in fresh processes: import mcfnet and build one problem's inputs.

    The SETUP_PROCESSES timed processes are spread over the sweep, so that
    their median does not hang on one moment's speed of the host.
    """

    def __init__(self, workload_name: str, problem_seed: int, budget_s: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(problem_seed)]
        self.budget_s = budget_s
        self.times: list[float] = []
        self._probe()  # the first process only fills the bytecode cache

    def _probe(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def due(self, spent_s: float) -> None:
        """Time the processes due after spent_s seconds of the sweep."""
        while len(self.times) < SETUP_PROCESSES and spent_s >= len(self.times) * self.budget_s / SETUP_PROCESSES:
            self.times.append(self._probe())

    def median(self) -> float:
        self.due(self.budget_s)
        return statistics.median(self.times)


Metrics = dict[str, tuple[float, str, str]]  # name -> (value, unit, note)


def end_to_end(workload, outcomes: list[Outcome]) -> Metrics:
    """End-to-end metrics of an untraced sweep, over the runs that returned."""
    done = [o for o in outcomes if o.error is None]
    results = [o.result for o in done]
    ms = [o.ms for o in done]
    costs = [o.cost for o in done]
    percentile, tail_ms = tail(ms)
    failed = sum(not o.ok for o in outcomes)
    return {
        "run_cost_p50": (statistics.median(costs), "ref", "run time in reference-kernel times"),
        "run_cost_tail": (tail(costs)[1], "ref", f"p{percentile:.1f} of {len(costs)} samples"),
        "runs_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s", ""),
        "run_ms_p50": (statistics.median(ms), "ms", ""),
        "run_ms_tail": (tail_ms, "ms", f"p{percentile:.1f} of {len(ms)} samples"),
        "reference_ms_p50": (statistics.median(o.ms / o.cost for o in done), "ms", "reference kernel around each run"),
        "fail_rate": (failed / len(outcomes), "ratio", f"{failed} of {len(outcomes)} runs"),
        "mcf_mean": (statistics.fmean(r.report.mcf for r in results), "mcf", "after refinement"),
        "network_mcf_mean": (statistics.fmean(r.network_mcf for r in results), "mcf", "before refinement"),
        "crisp_rate": (statistics.fmean(r.crisp for r in results), "ratio", ""),
        "k_hit_rate": (
            statistics.fmean(r.cluster_count == workload.reference_k for r in results),
            "ratio", f"reference {workload.reference_k} clusters",
        ),
        "iterations_mean": (statistics.fmean(r.iterations for r in results), "count", ""),
        "iterations_p50": (statistics.median(r.iterations for r in results), "count", ""),
    }


def per_layer(traced: list[Outcome], overhead: float) -> Metrics:
    """Per-run means of the traced runs' layer metrics."""
    done = [o.layers for o in traced if o.layers]
    out: Metrics = {}
    for name in done[0]:
        if name == "evidence.combine_focal_max":
            out[name] = (max(d[name] for d in done), "count", "largest over all runs")
        else:
            unit = "ms" if name.endswith(("_ms", ".ms")) else "count"
            out[name] = (statistics.fmean(d[name] for d in done), unit, "")
    candidates = sum(d["conflict.refine_candidates"] for d in done)
    moves = sum(d["conflict.refine_moves"] for d in done)
    out["conflict.refine_yield"] = (moves / candidates if candidates else 0.0, "ratio", "")
    out["trace.overhead"] = (overhead, "ratio", "traced over untraced runs per second in reference units, same problem seeds")
    return out


def layer_split(layers: Metrics) -> str:
    run_ms = layers["harness.run_ms"][0]
    shares = {
        "counts": layers["counts.ms"][0],
        "refine": layers["conflict.refine_ms"][0],
        "network": sum(layers[f"network.{k}_ms"][0] for k in ("step", "entropy", "converge", "init", "stabilizer")),
        "evaluate": layers["conflict.evaluate_ms"][0],
        "matrix": layers["conflict.matrix_ms"][0],
        "harness self": layers["harness.self_ms"][0],
    }
    return "layer split of traced run time: " + ", ".join(f"{k} {v / run_ms:.1%}" for k, v in shares.items())


def print_metrics(metrics: Metrics) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    mcfnet = load_library()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}")

    if args.trace == 0:
        setup = SetupTimer(workload.name, args.seed * SEED_STRIDE, args.seconds)
        untraced = sweep(mcfnet, workload, args.seed, budget_s=args.seconds, after_run=setup.due)
        setup_s = setup.median()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced: list[Outcome] = []
    else:
        untraced = sweep(mcfnet, workload, args.seed, budget_s=args.seconds * UNTRACED_SHARE)
        with Tracer() as tracer:
            traced = sweep(mcfnet, workload, args.seed, count=len(untraced), tracer=tracer)
    outcomes = untraced + traced
    print(f"problem seeds {untraced[0].seed}..{untraced[-1].seed}: {len(untraced)} untraced and {len(traced)} traced runs")

    correct = True
    for o in outcomes:
        if o.error is not None:
            print(f"error seed={o.seed} {o.error}")
        for problem in o.problems:
            print(f"check failed seed={o.seed}: {problem}")
            correct = False
    for u, t in zip(untraced, traced):
        if u.error is None and t.error is None and not same_result(u.result, t.result):
            print(f"check failed seed={u.seed}: traced run differs from the untraced run")
            correct = False
    if not any(o.error is None for o in untraced) or (traced and not any(o.layers for o in traced)):
        print("no run returned", file=sys.stderr)
        return 1

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s", f"median of {SETUP_PROCESSES} fresh processes"),
            **end_to_end(workload, untraced),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the benchmark process"),
        }
        print_metrics(metrics)
        reported = spec["end_to_end"]
    else:
        overhead = sum(o.cost for o in untraced if o.error is None) / sum(o.cost for o in traced if o.error is None)
        metrics = per_layer(traced, overhead)
        print_metrics(metrics)
        print(layer_split(metrics))
        accounted = sum(1 for o in traced if o.layers and SPAN_GAP not in o.problems)
        print(f"self times and child spans account for the wall time of {accounted} of {len(traced)} traced runs")
        if workload.config.mode == "fixed-k" and metrics["counts.calls"][0] != 0:
            print("check failed: fixed-k mode called the count layer")
            correct = False
        reported = spec["per_layer"]

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
