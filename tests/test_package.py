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

import exact_verbs
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


def _bench_tracing():
    """``bench/tracing.py``, loaded by path: the benchmark is no package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # bench/tracing.py rebinds these by name; a renamed or deleted function
    # would otherwise break only the traced benchmark pass
    tracing = _bench_tracing()
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


def test_deferred_answers_read_the_same_under_the_tracer():
    # a deferred witness is solved through polyalg.solve_linear_exact, which
    # the tracer spans and whose ``ncols`` it reads by keyword; the traced
    # smoke run never reads a certificate, so this reads one of an obstructed
    # prolong_step (the README jet at cap 8) and the witness of a solve
    formal, polyalg, multivector = (importlib.import_module(f"poissonforge.{m}")
                                    for m in ("formal", "polyalg", "multivector"))
    jet = multivector.PolyMVF(3, 2, {(1, 2): polyalg.parse_poly("x3", 3),
                                     (1, 3): polyalg.parse_poly("x1*x3", 3)}, weights=(0, 0, 1))

    def reads():
        res = formal.prolong_step(formal.FilteredJet(jet, 4), 4, base_degree_cap=8)
        # sparse rows and a keyword ``ncols``, as every solve the package makes
        out = polyalg.solve_linear_exact([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 3], ncols=2)
        return res.status, res.certificate, out.status, out.witness

    want = reads()
    tracer = _bench_tracing().Tracer()
    tracer.install()
    try:
        got = reads()
    finally:
        tracer.uninstall()
    assert got == want and want[::2] == ("obstructed", "infeasible")
    # two solves, and the transposed solve of each witness when it is read
    assert tracer.summary()["calls"]["polyalg.solve_linear_exact"] == 4
    assert tracer.counts["polyalg.solve_linear_exact.infeasible"] == 2


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


# Runs the CLI on argv lists given as JSON, then prints the exit codes and
# whether NumPy was loaded, as the last line of stdout.
_EXACT_RUN = """
import json, sys
from poissonforge import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("runs", list(exact_verbs.RUNS.values()), ids=list(exact_verbs.RUNS))
def test_exact_verbs_leave_numpy_unloaded(tmp_path, runs):
    # the exact verbs compute nothing in floating point, on success or on
    # an input error
    exact_verbs.write_inputs(tmp_path)
    argvs, codes = zip(*runs)
    out = _run_python(_EXACT_RUN, json.dumps(argvs), cwd=tmp_path)
    assert json.loads(out.stdout.splitlines()[-1]) == {"codes": list(codes), "numpy": False}
    # one error line for each input error: a huge size is refused where it is read
    errors = out.stderr.splitlines()
    assert len(errors) == codes.count(2) and all(e.startswith("error: ") for e in errors)


def test_exact_verbs_script():
    # the script the Python 3.10 CI job runs: every verb in one interpreter,
    # and the Heisenberg table, whose ranks take the lift
    path = os.path.join(os.path.dirname(__file__), "exact_verbs.py")
    out = _run_python(f"import runpy; runpy.run_path({path!r}, run_name='__main__')")
    assert out.stdout.endswith("NumPy-free start-up as expected\n")
