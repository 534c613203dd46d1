"""Checks on the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``. Each
test starts the benchmark command as a subprocess, the way it is run for
measurements; the fit_csv_large cases take about a minute each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import EXACT_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"


def bench(*args):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=300, check=False)


def traced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mc_two_way", "nongaussian", "fit_csv_large"])
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload), traced(workload)
    assert first["correct"] and second["correct"]
    assert first["metrics"]["solver.iterations_sum"]["value"] > 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "mc_two_way", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", "mc_two_way", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=180,
                          cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
