"""Smoke test: every demo script runs to completion.

``spray_realization.py`` is left out: it integrates the spray for about
12 s and criterion 5 already covers the realization pipeline.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SLOW = {"spray_realization.py"}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
