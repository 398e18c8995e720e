"""Reduced-size smoke test of the benchmark harness.

Every workload runs at a small size in both modes, and every metric
``BENCHMARK.json`` lists must come out with its unit; the command must
also fail without printing a result where the toolchain sources are
missing.

Run: ``python -m pytest perfbench/test_smoke.py -q``
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dag  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: 64-task versions of the DAG workloads and their trace fingerprints
SMALL_FIG5 = dataclasses.replace(
    dag.FIG5, n=1024,
    fingerprint="58e04a5e17d7fa20aa08576658afd4f11a8547f16b2e8e4e50421deb80909451",
)
SMALL_MESH = dataclasses.replace(
    dag.MESH, n=1024,
    fingerprint="bb8945f684887ea82e803e63a269eb26d24f3d774a07a92113ceefd38578553b",
)


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(dag, "FIG5", SMALL_FIG5)
    monkeypatch.setattr(dag, "MESH", SMALL_MESH)
    monkeypatch.setattr(serving, "DURATION_S", 1.0)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "TRACE_DIR", tmp_path)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(small, workload, trace):
    outcome = run.run_workload(workload, seed=3, seconds=0.5, trace=trace)
    record = run.result_line(outcome, SPEC, trace)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = record["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert (harness.TRACE_DIR / f"spans-{workload}.json").is_file()


def test_fails_without_toolchain_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-dgemm-32k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
