"""Every demo script runs to completion from the repository root."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import formukit

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(formukit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    before = sorted(os.listdir(ROOT))
    tmp = Path(tempfile.gettempdir())
    left_before = set(tmp.glob("formukit_demo_*"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
    assert sorted(os.listdir(ROOT)) == before
    assert set(tmp.glob("formukit_demo_*")) == left_before
