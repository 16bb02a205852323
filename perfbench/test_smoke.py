"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced, its checks pass, and every metric
that BENCHMARK.json names is emitted with its unit; the tracer reports a
missing function as absent and spans a new one; the benchmark refuses to run
without the package sources.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = _result(workload, 1)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert "absent" not in metrics[m["name"]], m["name"]
    assert metrics["trace.span_coverage"]["value"] >= 0.95


def test_tracer_table_matches_benchmark_json():
    sys.path.insert(0, str(BENCH))
    tracer = importlib.import_module("tracer")
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER


def test_tracer_tolerates_missing_and_new_functions(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    tracer = importlib.import_module("tracer")
    stability = importlib.import_module("wacrisk.stability")
    risk = importlib.import_module("wacrisk.risk")

    def added_helper(x):
        return x + 1

    added_helper.__module__ = risk.__name__
    monkeypatch.delattr(stability, "rightmost_root")
    monkeypatch.setattr(risk, "added_helper", added_helper, raising=False)
    trace = tracer.Tracer()
    trace.job = 0
    trace.install()
    try:
        verdict = stability.classify(stability.ScaledParams(1.0, 1.0, 0.2, 0.2))
        assert risk.added_helper(1) == 2
    finally:
        trace.uninstall()
    assert stability.classify is trace.targets["stability.classify"]
    metrics = tracer.per_layer(trace, {0: 1.0}, 0.0)
    assert metrics["stability.rightmost_root.calls"].get("absent") is True
    assert metrics["stability.classify.calls"] == {"value": 1.0, "unit": "count"}
    assert metrics["stability.classify.unstable_frac"]["value"] == float(not verdict.stable)
    assert [s[0] for s in trace.spans].count("risk.added_helper") == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
