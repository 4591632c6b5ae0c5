"""Smoke test of the benchmark: one pass of every workload, traced and not.

    python3 -m pytest perfbench/test_smoke.py

Slow (a few minutes): each workload runs its full command sequence once
untraced and once traced. Not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_its_checks(workload):
    proc = _run(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    # trace mode runs one untraced and one traced pass
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = result["metrics"]
    assert layers["trace.coverage"]["value"] > 0.95


def test_end_to_end_metrics_are_reported():
    proc = _run(ROOT, "spectral", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "spectral", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
