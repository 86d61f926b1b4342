"""The benchmark's smoke run: every workload at tiny sizes, checks only."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["attempted"] > 0 and summary["failed"] == 0
