"""The benchmark's own test: every workload and every output check at tiny
sizes. Outside the suite's testpaths; run it with

    python3 -m pytest benchmarks/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CHECK FAILED" not in proc.stdout
