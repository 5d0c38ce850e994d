"""Package-level checks: every public module's ``__all__`` resolves, every name the
benchmark tracer spans exists, and a CLI start-up leaves SciPy unloaded."""

import importlib
import importlib.util
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


def test_traced_names_resolve():
    # bench/tracing.py rebinds these by name; a renamed or deleted function
    # would otherwise break only the traced benchmark pass
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, attr in tracing.SPANNED:
        home = importlib.import_module(f"poissonforge.{layer}")
        owner, _, name = attr.rpartition(".")
        where = vars(getattr(home, owner)) if owner else vars(home)
        assert callable(where.get(name)), f"poissonforge.{layer}.{attr}"
    # the jet operations are spanned where formal calls them, through its globals
    formal, multivector = (importlib.import_module(f"poissonforge.{m}")
                           for m in ("formal", "multivector"))
    for name in ("truncate_jet", "grade_component"):
        assert vars(formal)[name] is vars(multivector)[name]


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
