"""Smoke test of the benchmark itself, at tiny sizes (a few seconds per workload).

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    result, record = run.measure(workload, seed=3, seconds=0, trace=trace, tiny=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    assert record["seed"] == 3 and record["nproc"] and record["python"]
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    result, record = run.measure(workload, seed=4, seconds=0, trace=False, tiny=True, tamper=True)
    assert result["failed"] == 1 and not result["correct"]
    assert record["error_rate"] == 1 / result["attempted"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "rewrite", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
