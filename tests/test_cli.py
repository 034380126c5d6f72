"""The command line surface: gen, run, batch, eval, and error reporting."""

from __future__ import annotations

import json

import pytest

from mcfnet.cli import _build_config, build_parser, main
from mcfnet.counts import PriorSpec
from mcfnet.harness import RunConfig
from mcfnet.problems import ProblemSpec, load_evidence

# Every flag any subcommand has had, with a value to give it (None: takes none).
ALL_FLAGS = {
    "--config": "config.json", "--seed": "0", "--mode": "fixed-k", "--k": "4",
    "--p": "0.5", "--columns": "3", "--max-iter": "5", "--trace-dir": "traces",
    "--snapshot-every": "1", "--frame-size": "3", "--mass-mode": "ones",
    "--problem-file": "problem.txt", "--no-refine": None, "--out": "problem.txt",
    "--runs": "1", "--out-dir": "results", "--partition-file": "part.txt", "--c0": "0.1",
}
_GENERATED = ("--seed", "--frame-size", "--mass-mode")
_NETWORK = ("--k", "--p", "--columns", "--max-iter", "--trace-dir", "--snapshot-every",
            "--no-refine")
READS = {
    "gen": (*_GENERATED, "--out"),
    "run": (*_GENERATED, "--problem-file", "--mode", *_NETWORK),
    "batch": (*_GENERATED, *_NETWORK, "--runs", "--out-dir"),
    "eval": ("--problem-file", "--partition-file", "--c0"),
}
REQUIRED = {"gen": ["--out", "problem.txt"], "run": [], "batch": [],
            "eval": ["--problem-file", "problem.txt", "--partition-file", "part.txt"]}


def _flag_args(flags) -> list[str]:
    args = []
    for flag in flags:
        args += [flag] if ALL_FLAGS[flag] is None else [flag, ALL_FLAGS[flag]]
    return args


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_reads_its_flags(command):
    build_parser().parse_args([command, *_flag_args(READS[command])])


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in READS.items()
    for flag in ALL_FLAGS if flag not in reads
])
def test_flag_a_subcommand_does_not_read_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args([command, *REQUIRED[command], *_flag_args([flag])])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_settings_build_the_dataclass_defaults():
    args = build_parser().parse_args(["run"])
    assert (_build_config(args), args.seed) == (RunConfig(), 0)


def test_every_setting_reaches_its_field(tmp_path):
    args = build_parser().parse_args([
        "run", "--seed", "7", "--mode", "fixed-k", "--k", "4", "--p", "0.5",
        "--columns", "3", "--max-iter", "20", "--trace-dir", str(tmp_path),
        "--snapshot-every", "5", "--frame-size", "4", "--mass-mode", "ones",
        "--no-refine",
    ])
    assert args.seed == 7
    assert _build_config(args) == RunConfig(
        problem=ProblemSpec(frame_size=4, mass_mode="ones"),
        prior=PriorSpec(p=0.5),
        max_iterations=20, mode="fixed-k", fixed_k=4, columns=3,
        trace_dir=tmp_path, snapshot_every=5, refine=False,
    )


def test_gen_writes_problem_file(tmp_path, capsys):
    out = tmp_path / "problem.txt"
    assert main(["gen", "--seed", "1", "--out", str(out)]) == 0
    evidence = load_evidence(out)
    assert len(evidence) == 31
    assert "31 pieces" in capsys.readouterr().out


def test_run_emits_json_result(capsys):
    code = main(["run", "--seed", "0", "--mode", "fixed-k", "--k", "5",
                 "--max-iter", "40"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "fixed-k"
    assert out["iterations"] <= 40
    assert len(out["assignment"]) == 31
    assert "mcf" in out and "network_mcf" in out and "final_c0" in out


def test_run_with_problem_file_and_no_refine(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    main(["gen", "--seed", "2", "--out", str(problem)])
    capsys.readouterr()
    code = main(["run", "--problem-file", str(problem), "--no-refine",
                 "--max-iter", "30"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mcf"] == out["network_mcf"]  # refinement disabled


def test_run_takes_frame_size_from_problem_file(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    assert main(["gen", "--frame-size", "6", "--out", str(problem)]) == 0
    capsys.readouterr()
    # 63 pieces allow k = 40, although the default frame of 5 has 31.
    assert main(["run", "--problem-file", str(problem), "--mode", "fixed-k",
                 "--k", "40", "--max-iter", "5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["assignment"]) == 63
    # The default column count is the file's frame size + 1.
    assert main(["run", "--problem-file", str(problem), "--max-iter", "5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cluster_conflicts"]) == 7


@pytest.mark.parametrize("flag, value", [("--frame-size", "6"), ("--mass-mode", "ones")])
def test_generation_flag_with_problem_file_rejected(tmp_path, capsys, flag, value):
    problem = tmp_path / "problem.txt"
    main(["gen", "--out", str(problem)])
    capsys.readouterr()
    assert main(["run", "--problem-file", str(problem), flag, value]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert flag in err["message"]


def test_batch_writes_summary(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main(["batch", "--runs", "1", "--max-iter", "60",
                 "--out-dir", str(out_dir)])
    assert code == 0
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["n_seeds"] == 1
    assert "mean_iterations" in data["per_mode"]["unknown-k"]


def _zero_conflict_lines(problem) -> list[str]:
    # The analytic zero-conflict assignment: cluster = smallest element - 1.
    return [f"{e.id}, {min(e.focal.elements()) - 1}" for e in load_evidence(problem)]


def test_eval_scores_partition_file(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    main(["gen", "--seed", "0", "--out", str(problem)])
    capsys.readouterr()
    partition = tmp_path / "partition.txt"
    partition.write_text("\n".join(_zero_conflict_lines(problem)) + "\n")
    code = main(["eval", "--problem-file", str(problem),
                 "--partition-file", str(partition)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mcf"] <= 1e-12
    assert out["cluster_count"] == 5


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + lines[3:], "evidence id 2 has no cluster"),
    (lambda lines: lines + ["99, 0"], "evidence id 99 is not in the problem"),
    (lambda lines: lines + [lines[2]], "evidence id 2 is given twice"),
], ids=["missing", "unknown", "twice"])
def test_eval_checks_partition_ids(tmp_path, capsys, edit, message):
    problem = tmp_path / "problem.txt"
    main(["gen", "--seed", "0", "--out", str(problem)])
    capsys.readouterr()
    partition = tmp_path / "partition.txt"
    partition.write_text("\n".join(edit(_zero_conflict_lines(problem))) + "\n")
    assert main(["eval", "--problem-file", str(problem),
                 "--partition-file", str(partition)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message}


def test_eval_requires_problem_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["eval", "--partition-file", str(tmp_path / "part.txt")])
    assert exited.value.code == 2
    assert "--problem-file" in capsys.readouterr().err


def test_error_is_machine_readable(capsys):
    code = main(["run", "--p", "1.5"])  # invalid prior constant
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "p" in err["message"]


def test_gen_and_run_with_one_seed_solve_one_problem(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    assert main(["gen", "--seed", "3", "--out", str(problem)]) == 0
    capsys.readouterr()
    assert main(["run", "--seed", "3", "--max-iter", "200"]) == 0
    generated = json.loads(capsys.readouterr().out)
    assert main(["run", "--problem-file", str(problem), "--seed", "3",
                 "--max-iter", "200"]) == 0
    from_file = json.loads(capsys.readouterr().out)
    for key in ("assignment", "mcf", "network_mcf", "iterations"):
        assert from_file[key] == generated[key]
