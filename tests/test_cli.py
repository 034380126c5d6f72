"""The command line surface: gen, run, batch, eval, and error reporting."""

from __future__ import annotations

import json

import pytest

from mcfnet.cli import _build_config, main
from mcfnet.counts import PriorSpec
from mcfnet.harness import RunConfig
from mcfnet.problems import ProblemSpec, load_evidence


def test_no_settings_build_the_dataclass_defaults():
    assert _build_config({}) == (RunConfig(), 0)


def test_every_setting_reaches_its_field(tmp_path):
    config, seed = _build_config({
        "seed": 7, "mode": "fixed-k", "k": 4, "p": 0.5, "columns": 3,
        "max_iter": 20, "trace_dir": str(tmp_path), "snapshot_every": 5,
        "frame_size": 4, "mass_mode": "ones", "refine": False,
    })
    assert seed == 7
    assert config == RunConfig(
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


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "fixed-k", "k": 4, "max_iter": 500}))
    code = main(["run", "--config", str(config), "--max-iter", "20"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "fixed-k"
    assert out["iterations"] <= 20  # flag beat the config file


def test_config_file_with_unknown_key_rejected(tmp_path, capsys):
    # r_max is no longer a setting: the column count alone sizes the prior.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"r_max": 3, "max_iter": 5}))
    assert main(["run", "--config", str(config)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "r_max" in err["message"]


def test_batch_writes_summary(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main(["batch", "--runs", "1", "--max-iter", "60",
                 "--out-dir", str(out_dir)])
    assert code == 0
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["n_seeds"] == 1
    assert "mean_iterations" in data["per_mode"]["unknown-k"]


def test_eval_scores_partition_file(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    main(["gen", "--seed", "0", "--out", str(problem)])
    capsys.readouterr()
    # The analytic zero-conflict assignment: cluster = smallest element - 1.
    evidence = load_evidence(problem)
    lines = [
        f"{e.id}, {min(e.focal.elements()) - 1}" for e in evidence
    ]
    partition = tmp_path / "partition.txt"
    partition.write_text("\n".join(lines) + "\n")
    code = main(["eval", "--problem-file", str(problem),
                 "--partition-file", str(partition)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mcf"] <= 1e-12
    assert out["cluster_count"] == 5


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
