"""Smoke test: every demo script runs to completion.

The slowest is ``spray_realization.py``, about 3.5 s on a 2-core host
(2000 RK4 steps at a batch of 1400 trajectories).
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
