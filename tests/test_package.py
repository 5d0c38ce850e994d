"""Package-level checks: every public module's ``__all__`` resolves, and a CLI start-up
leaves SciPy unloaded."""

import os
import pkgutil
import subprocess
import sys

import pytest

import poissonforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(poissonforge.__path__))


def test_modules_found():
    assert {"cli", "formal", "liealg", "multivector", "poisson", "polyalg",
            "realize"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from poissonforge.{module} import *", {})


def test_cli_import_leaves_scipy_unloaded():
    # SciPy is imported where it is used (the su(3) coadjoint-flow check),
    # so a CLI start-up does not pay for it
    src = os.path.dirname(os.path.dirname(poissonforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, poissonforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
