"""Command line interface: generate problems, run, batch, and score partitions.

Each subcommand accepts only the flags it reads.  On failure a single
machine-readable JSON error line goes to stderr and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from mcfnet.conflict import Partition, evaluate_partition
from mcfnet.counts import PriorSpec
from mcfnet.evidence import SimpleSupport
from mcfnet.harness import MODES, RunConfig, batch, run
from mcfnet.problems import (MASS_MODES, ProblemSpec, generate, load_evidence, save_evidence,
                             seed_streams)


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed (default 0); one seed is one problem in gen, run and batch")
    parser.add_argument("--frame-size", type=int,
                        help=f"frame size (default {ProblemSpec.frame_size})")
    parser.add_argument("--mass-mode", choices=MASS_MODES, help="mass drawing mode")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", dest="fixed_k", type=int,
                        help=f"cluster count in fixed-k mode (default {RunConfig.fixed_k})")
    parser.add_argument("--p", type=float, help=f"prior constant p (default {PriorSpec.p})")
    parser.add_argument("--columns", type=int, help="cluster-slot count (default frame size + 1)")
    parser.add_argument("--max-iter", dest="max_iterations", type=int,
                        help=f"iteration cap (default {RunConfig.max_iterations})")
    parser.add_argument("--trace-dir", type=Path, help="emit per-iteration traces here")
    parser.add_argument("--snapshot-every", type=int, help="grid snapshot period (0 = off)")
    parser.add_argument("--no-refine", dest="refine", action="store_false", default=None,
                        help="report the raw network partition without descent refinement")


def _from_flags(cls, args: argparse.Namespace, **parts):
    """An instance of cls from the flags named after its fields that were given.

    A field whose flag is not given keeps its dataclass default.
    """
    given = {f.name: getattr(args, f.name) for f in fields(cls)
             if getattr(args, f.name, None) is not None}
    return cls(**given, **parts)


def _build_config(args: argparse.Namespace, problem: ProblemSpec | None = None) -> RunConfig:
    """The run configuration that the parsed flags describe."""
    return _from_flags(RunConfig, args,
                       problem=problem or _from_flags(ProblemSpec, args),
                       prior=_from_flags(PriorSpec, args))


def cmd_gen(args: argparse.Namespace) -> int:
    mass_rng, _ = seed_streams(args.seed)
    evidence = generate(_from_flags(ProblemSpec, args), mass_rng)
    save_evidence(args.out, evidence)
    print(f"wrote {len(evidence)} pieces of evidence to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    evidence = None
    problem = None
    if args.problem_file is not None:
        if args.frame_size is not None or args.mass_mode is not None:
            raise ValueError("--frame-size and --mass-mode describe a generated problem; "
                             "--problem-file gives the problem")
        evidence = load_evidence(args.problem_file)
        problem = ProblemSpec(frame_size=evidence[0].frame.size)
    result = run(_build_config(args, problem), args.seed, evidence=evidence)
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
    summary = batch(_build_config(args), n_seeds=args.runs, base_seed=args.seed,
                    output_dir=args.out_dir)
    print(summary.human_table())
    if args.out_dir:
        print(f"summary written to {args.out_dir}")
    return 0


def _read_partition(path: Path, evidence: list[SimpleSupport]) -> Partition:
    """The partition of lines `evidence_id, cluster_index`, one per piece of evidence."""
    known = {e.id for e in evidence}
    by_id: dict[int, int] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        eid, cluster = (int(x) for x in ln.split(","))
        if eid not in known:
            raise ValueError(f"evidence id {eid} is not in the problem")
        if eid in by_id:
            raise ValueError(f"evidence id {eid} is given twice")
        by_id[eid] = cluster
    for e in evidence:
        if e.id not in by_id:
            raise ValueError(f"evidence id {e.id} has no cluster")
    assignment = tuple(by_id[e.id] for e in evidence)
    return Partition(assignment=assignment, n_clusters=max(assignment) + 1)


def cmd_eval(args: argparse.Namespace) -> int:
    evidence = load_evidence(args.problem_file)
    partition = _read_partition(args.partition_file, evidence)
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

    # No abbreviations: each flag is given one way, by its full name.
    gen = sub.add_parser("gen", help="generate a problem file", allow_abbrev=False)
    _add_problem_flags(gen)
    gen.add_argument("--out", type=Path, required=True, help="output problem file")
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run one clustering", allow_abbrev=False)
    _add_problem_flags(runp)
    runp.add_argument("--problem-file", type=Path,
                      help="read evidence instead of generating; its frame size is the run's")
    runp.add_argument("--mode", choices=MODES, help="clustering mode")
    _add_run_flags(runp)
    runp.set_defaults(func=cmd_run)

    batchp = sub.add_parser("batch", help="run a seeded batch in both modes",
                            allow_abbrev=False)
    _add_problem_flags(batchp)
    _add_run_flags(batchp)
    batchp.add_argument("--runs", type=int, default=10, help="number of seeds")
    batchp.add_argument("--out-dir", type=Path, help="write summary files here")
    batchp.set_defaults(func=cmd_batch)

    evalp = sub.add_parser("eval", help="score a partition file against a problem file",
                           allow_abbrev=False)
    evalp.add_argument("--problem-file", type=Path, required=True, help="problem file")
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
