"""Smoke test of the benchmark at minimal length.

Every metric named in BENCHMARK.json must appear, with its unit, for every
workload the benchmark defines, including any BENCHMARK.json leaves out,
and the benchmark must refuse to run without the library sources.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {0: "end_to_end", 1: "per_layer"}


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(workload: str, trace: int) -> dict:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", sorted(KEYS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[KEYS[trace]]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])


def test_fixed_k_never_calls_the_count_layer():
    metrics = result_of("grid-f6-fixed", 1)["metrics"]
    assert metrics["counts.calls"]["value"] == 0
    assert metrics["counts.existence_calls"]["value"] == 0


def test_benchmark_lists_only_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_every_layer_metric_names_the_end_to_end_metrics_it_moves():
    record = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    assert set(record["layer_targets"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("paper-f5-unknown", 0, tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
