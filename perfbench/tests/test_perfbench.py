"""Tests of the benchmark itself, at the reduced smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(*args: str, cwd: Path = ROOT) -> dict:
    code, lines = _bench(*args, cwd=cwd)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in tracer.PER_LAYER]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result("--workload", workload, "--trace", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = _result("--workload", workload, "--trace", "1", "--smoke")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [entry[0] for entry in tracer.PER_LAYER]
    assert metrics["core.validate.calls"] > 0
    if workload == "sweep":
        # claims imports cent_structure by name; only rebinding that name
        # lets the tracer see these calls.
        assert metrics["invariants.centralizers.calls"] > 0
        assert metrics["enumeration.classes"] > 0
    if workload == "files":
        assert metrics["report.read.bytes"] > 0
        assert metrics["report.write.bytes"] > 0
        assert metrics["cli.self_s"] > 0


def test_corrupted_expectation_counts_as_failed(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "cent_atlas",
                    tmp_path / "src" / "cent_atlas",
                    ignore=shutil.ignore_patterns("__pycache__"))
    claims_path = tmp_path / "perfbench" / "expected" / "claims.json"
    claims = json.loads(claims_path.read_text())
    claims["claim:C1"] = "0" * 64
    claims_path.write_text(json.dumps(claims))
    result = _result("--workload", "sweep", "--trace", "0", "--smoke",
                     cwd=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_item_over_its_cap_fails_and_returns():
    start = time.monotonic()
    latency, result, error = worker.run_item(lambda: time.sleep(30), 0.2)
    assert result is None and "cap" in error
    assert time.monotonic() - start < 5


def _pool_sleep():
    with ProcessPoolExecutor(max_workers=1) as pool:
        return list(pool.map(time.sleep, [30]))


def test_item_cap_ends_pool_workers():
    start = time.monotonic()
    latency, result, error = worker.run_item(_pool_sleep, 0.5)
    assert result is None and "cap" in error
    assert time.monotonic() - start < 10
    assert not worker.multiprocessing.active_children()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "sweep", "--trace", "0",
                         cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
