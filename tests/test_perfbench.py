"""Smoke test of the benchmark harness, so it cannot rot unnoticed.

``perfbench/run.py --self-check`` runs every workload's task list once at
N=64, L=4, untraced and traced; it fails if any output misses its oracle
or if a traced function it wraps by name no longer exists.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check_passes():
    r = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    assert "[self-check] PASS" in r.stdout
