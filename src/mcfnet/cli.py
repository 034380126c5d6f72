"""Command line interface: generate problems, run, batch, and score partitions.

Flags override values from an optional JSON config file.  On failure a
single machine-readable JSON error line goes to stderr and the exit code
is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from mcfnet.conflict import Partition, evaluate_partition
from mcfnet.counts import PriorSpec
from mcfnet.harness import RunConfig, batch, run
from mcfnet.network import HyperParams
from mcfnet.problems import ProblemSpec, generate, load_evidence, save_evidence, seed_streams


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int,
                        help="run seed (default 0); one seed is one problem in gen, run and batch")
    parser.add_argument("--mode", choices=["unknown-k", "fixed-k"], help="clustering mode")
    parser.add_argument("--k", type=int, help="cluster count in fixed-k mode (default 5)")
    parser.add_argument("--p", type=float, help="prior constant p (default 0.9)")
    parser.add_argument("--columns", type=int, help="cluster-slot count (default frame size + 1)")
    parser.add_argument("--max-iter", type=int, help="iteration cap (default 1000)")
    parser.add_argument("--trace-dir", type=Path, help="emit per-iteration traces here")
    parser.add_argument("--snapshot-every", type=int, help="grid snapshot period (0 = off)")
    parser.add_argument("--frame-size", type=int, help="frame size (default 5)")
    parser.add_argument("--mass-mode", choices=["uniform", "ones"], help="mass drawing mode")
    parser.add_argument("--problem-file", type=Path, help="read evidence instead of generating")
    parser.add_argument("--no-refine", action="store_true",
                        help="report the raw network partition without descent refinement")


SETTINGS = ("seed", "mode", "k", "p", "columns", "max_iter", "trace_dir",
            "snapshot_every", "frame_size", "mass_mode", "problem_file", "refine")


def _settings(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(json.loads(Path(args.config).read_text()))
        unknown = sorted(set(settings) - set(SETTINGS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {list(SETTINGS)}")
    for key in SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if getattr(args, "no_refine", False):
        settings["refine"] = False
    return settings


def _build_config(settings: dict) -> tuple[RunConfig, int]:
    """The run configuration and the run seed that settings describe."""
    columns = settings.get("columns")
    config = RunConfig(
        problem=ProblemSpec(
            frame_size=int(settings.get("frame_size", 5)),
            mass_mode=settings.get("mass_mode", "uniform"),
        ),
        params=HyperParams(max_iterations=int(settings.get("max_iter", 1000))),
        prior=PriorSpec(p=float(settings.get("p", 0.9))),
        mode=settings.get("mode", "unknown-k"),
        fixed_k=int(settings.get("k", 5)),
        columns=int(columns) if columns is not None else None,
        trace_dir=settings.get("trace_dir"),
        snapshot_every=int(settings.get("snapshot_every", 0)),
        refine=bool(settings.get("refine", True)),
    )
    return config, int(settings.get("seed", 0))


def _load_problem(settings: dict):
    if settings.get("problem_file"):
        return load_evidence(settings["problem_file"])
    return None


def cmd_gen(args: argparse.Namespace) -> int:
    config, seed = _build_config(_settings(args))
    mass_rng, _ = seed_streams(seed)
    evidence = generate(config.problem, mass_rng)
    save_evidence(args.out, evidence)
    print(f"wrote {len(evidence)} pieces of evidence to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args)
    config, seed = _build_config(settings)
    result = run(config, seed, evidence=_load_problem(settings))
    out = {
        "seed": result.seed,
        "mode": result.mode,
        "iterations": result.iterations,
        "crisp": result.crisp,
        "cluster_count": result.cluster_count,
        "mcf": result.report.mcf,
        "network_mcf": result.network_mcf,
        "final_c0": result.final_c0,
        "cluster_conflicts": list(result.report.cluster_conflicts),
        "assignment": list(result.partition.assignment),
        "trace_files": [str(p) for p in result.trace_files],
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    config, seed = _build_config(_settings(args))
    summary = batch(config, n_seeds=args.runs, base_seed=seed, output_dir=args.out_dir)
    print(summary.human_table())
    if args.out_dir:
        print(f"summary written to {args.out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _settings(args)
    evidence = load_evidence(settings["problem_file"])
    lines = [
        ln.strip() for ln in Path(args.partition_file).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    by_id = {}
    for ln in lines:
        eid, cluster = (int(x) for x in ln.split(","))
        by_id[eid] = cluster
    assignment = tuple(by_id[e.id] for e in evidence)
    partition = Partition(assignment=assignment, n_clusters=max(assignment) + 1)
    report = evaluate_partition(evidence, partition, c0=args.c0)
    print(json.dumps({
        "mcf": report.mcf,
        "domain_conflict": report.domain_conflict,
        "cluster_conflicts": list(report.cluster_conflicts),
        "cluster_count": partition.nonempty_count(),
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfnet",
        description="Cluster Dempster-Shafer evidence with a Hopfield-style network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem file")
    _add_common(gen)
    gen.add_argument("--out", type=Path, required=True, help="output problem file")
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run one clustering")
    _add_common(runp)
    runp.set_defaults(func=cmd_run)

    batchp = sub.add_parser("batch", help="run a seeded batch in both modes")
    _add_common(batchp)
    batchp.add_argument("--runs", type=int, default=10, help="number of seeds")
    batchp.add_argument("--out-dir", type=Path, help="write summary files here")
    batchp.set_defaults(func=cmd_batch)

    evalp = sub.add_parser("eval", help="score a partition file against a problem file")
    _add_common(evalp)
    evalp.add_argument("--partition-file", type=Path, required=True,
                       help="lines of `evidence_id, cluster_index`")
    evalp.add_argument("--c0", type=float, default=0.0, help="domain conflict to include")
    evalp.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
