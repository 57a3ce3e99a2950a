"""Smoke test of the benchmark at a tiny size, so the script cannot rot.

Runs every workload of BENCHMARK.json in both modes with ``--scale smoke``
and checks the printed result against the metric list there.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert self_total + values["trace.other_s"] == pytest.approx(values["trace.wall_s"])
    else:
        assert all(v > 0 for v in values.values())
    environment = json.loads(detail_line)["detail"]["environment"]
    assert {"nproc", "workers", "blas", "blas_threads", "python", "numpy", "scipy"} <= set(environment)


def test_refuses_more_workers_than_cores():
    proc = bench("--workload", "mc-cell", "--seed", "3", "--seconds", "1", "--scale", "smoke",
                 "--workers", str(len(os.sched_getaffinity(0)) + 1))
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fit-default", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
