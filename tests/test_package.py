"""Package-level checks: every public module's ``__all__`` resolves, every name the
benchmark tracer spans exists, and a CLI start-up and the exact verbs leave
SciPy and NumPy unloaded."""

import importlib
import importlib.util
import json
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


def test_package_serves_every_realize_name():
    # the package names of `realize` are served without importing it, from
    # a list of their own that must match its __all__
    assert poissonforge._REALIZE_NAMES == set(poissonforge.realize.__all__)
    for name in poissonforge.realize.__all__:
        assert getattr(poissonforge, name) is getattr(poissonforge.realize, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        poissonforge.no_such_name


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


def _run_python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code args`` with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(poissonforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    # SciPy and NumPy are imported where they are used, so a CLI start-up
    # pays for neither; `realize` is still registered, for the benchmark
    # tracer, and its names still resolve from the package
    code = ("import json, sys, poissonforge.cli; "
            "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy' in sys.modules, 'poissonforge.realize' in sys.modules])); "
            "import poissonforge; "
            "print(poissonforge.SprayField.__name__, poissonforge.FlowBlowupError.__name__)")
    first, second = _run_python(code).stdout.splitlines()
    assert json.loads(first) == [[], False, True]
    assert second == "SprayField FlowBlowupError"


_SO3 = {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"},
                        {"i": 2, "j": 3, "k": 1, "value": "1"},
                        {"i": 1, "j": 3, "k": 2, "value": "-1"}]}
_JET = {"nvars": 3, "weights": [0, 0, 1], "grade": 2,
        "terms": [{"indices": [1, 2], "poly": "x3"}, {"indices": [1, 3], "poly": "x1*x3"}]}
_VECTOR_FIELD = {"nvars": 3, "grade": 1, "terms": [{"indices": [1], "poly": "x2"}]}

# Runs the CLI on argv lists given as JSON, then prints the exit codes and
# whether NumPy was loaded, as the last line of stdout.
_EXACT_RUN = """
import json, sys
from poissonforge import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("runs", [
    [(["check", "so3.json"], 0), (["check", "vf.json"], 2)],
    [(["casimirs", "so3.json", "--max-degree", "2"], 0),
     (["casimirs", "so3.json", "--max-degree", "-1"], 2)],
    [(["cohomology", "so3.json", "--grade", "2"], 0),
     (["cohomology", "so3.json", "--grade", "-1"], 2)],
    [(["linearize", "so3.json", "--truncate", "4"], 0),
     (["linearize", "so3.json", "--base-degree-cap", "-1"], 2)],
    # the README jet is obstructed: the witness path runs too
    [(["prolong", "jet.json", "--weights", "0,0,1"], 1), (["prolong", "so3.json"], 0),
     (["prolong", "jet.json", "--grade", "-1"], 2)],
], ids=["check", "casimirs", "cohomology", "linearize", "prolong"])
def test_exact_verbs_leave_numpy_unloaded(tmp_path, runs):
    # the exact verbs compute nothing in floating point, on success or on
    # an input error
    for name, obj in (("so3", _SO3), ("jet", _JET), ("vf", _VECTOR_FIELD)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argvs, codes = zip(*runs)
    out = _run_python(_EXACT_RUN, json.dumps(argvs), cwd=tmp_path)
    assert json.loads(out.stdout.splitlines()[-1]) == {"codes": list(codes), "numpy": False}
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1
