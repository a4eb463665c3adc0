"""Smoke test of the benchmark harness against the library as it is."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_branches_orbits_round():
    # one quick round of the module-grade workload: breaks when a library
    # API that bench/ uses changes shape
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "branches-orbits",
         "--seed", "1", "--seconds", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 4


def test_bench_quick_dim_base_round():
    # one quick Bowen solve through the tree and threshold path, checked by
    # the workload's own level-sum double loop
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dim-base",
         "--seed", "1", "--seconds", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_bench_quick_sweep_grid_round():
    # one quick cold sweep: cells solve off the main thread, checked by the
    # workload's mirror-cell and bracket oracles
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_bench_traced_dim_base_round():
    # the traced round counts the pairs solved through the names that
    # bench/tracing.py wraps; a solve that bypassed them would go uncounted
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dim-base",
         "--seed", "1", "--seconds", "0", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["preimages.pairs"]["value"] == 113_010
