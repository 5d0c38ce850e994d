"""The exact verbs on the standard library alone: no verb may load NumPy.

``INPUTS`` are the JSON files the runs read and ``RUNS`` the CLI argv lists,
grouped by verb, each with its expected exit code: a success and an input
error per verb, for ``check`` and ``casimirs`` a field and a table of 10^30
variables, refused where ``nvars`` and ``dim`` are read, and for ``prolong``
the obstructed README jet, which takes the witness path of the exact solver.
Every run but an input error comes once in text and once with ``--format
json``, so both renderings of each report are built.  ``test_package`` runs
each group in a fresh interpreter.  Run as a script, with ``src`` on
``PYTHONPATH``, this file makes every run in one interpreter, in a temporary
directory, then the cohomology table of
the 3-dimensional Heisenberg algebra at grade 1, whose ranks are not all
pinned by the complex's exactness and so take the lift, reads reals through
``polyalg._as_real``, the package's one real reader, solves a dense system
with ``Fraction`` and rational-string entries and takes its rank, so that the
row reader ``polyalg._to_sparse_rows`` and the converter ``polyalg._over_lcm``
run, and asserts the exit codes, that each JSON run printed one JSON object,
the so3 Casimir basis ``1``, ``x1^2 + x2^2 + x3^2`` in both renderings (its
elimination skips the rows that unit pivot rows settle, and its certificate
the rows off the kernel's support), the Betti numbers ``[1, 4, 5, 2]``, that
the reader refuses a ``bool``, a NaN and, when ``positive``, a value <= 0,
that the solution and the kernel vector satisfy the system exactly, the
rank 2, and that NumPy was never imported:

    PYTHONPATH=src python tests/exact_verbs.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

INPUTS = {
    "so3": {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"},
                            {"i": 2, "j": 3, "k": 1, "value": "1"},
                            {"i": 1, "j": 3, "k": 2, "value": "-1"}]},
    "jet": {"nvars": 3, "weights": [0, 0, 1], "grade": 2,
            "terms": [{"indices": [1, 2], "poly": "x3"}, {"indices": [1, 3], "poly": "x1*x3"}]},
    "vf": {"nvars": 3, "grade": 1, "terms": [{"indices": [1], "poly": "x2"}]},
    "heis": {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"}]},
    "huge_field": {"nvars": 10**30, "grade": 2, "terms": []},
    "huge_table": {"dim": 10**30, "C": []},
}

RUNS = {
    "check": [(["check", "so3.json"], 0), (["check", "vf.json"], 2),
              (["check", "huge_field.json"], 2)],
    "casimirs": [(["casimirs", "so3.json", "--max-degree", "2"], 0),
                 (["casimirs", "so3.json", "--max-degree", "-1"], 2),
                 (["casimirs", "huge_table.json"], 2)],
    "cohomology": [(["cohomology", "so3.json", "--grade", "2"], 0),
                   (["cohomology", "so3.json", "--grade", "-1"], 2)],
    "linearize": [(["linearize", "so3.json", "--truncate", "4"], 0),
                  (["linearize", "so3.json", "--base-degree-cap", "-1"], 2)],
    "prolong": [(["prolong", "jet.json", "--weights", "0,0,1"], 1), (["prolong", "so3.json"], 0),
                (["prolong", "jet.json", "--grade", "-1"], 2)],
}
for _runs in RUNS.values():
    _runs += [(argv + ["--format", "json"], code) for argv, code in _runs if code != 2]


def write_inputs(directory: str) -> None:
    for name, obj in INPUTS.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def check_real_reader() -> None:
    """``_as_real`` refuses a bool, a NaN and, when ``positive``, 0 and -1, naming each."""
    from poissonforge.polyalg import _as_real

    for value, positive in ((True, False), (float("nan"), False), (0.0, True), (-1, True)):
        try:
            _as_real(value, "x", positive)
        except ValueError as e:
            assert str(e).startswith("'x' must be"), e
        else:
            raise AssertionError(f"_as_real({value!r}, positive={positive}) was not refused")
    assert _as_real(-1, "x") == -1.0 and _as_real(2, "x", True) == 2.0


def check_dense_solve() -> None:
    """A dense 2 x 3 system of ``Fraction``s, ints and rational strings: the particular
    solution and the kernel vector satisfy it exactly, and the rank is 2."""
    from poissonforge.polyalg import exact_rank, solve_linear_exact

    A = [[Fraction(1, 2), "1/3", 0], ["-2/5", 1, Fraction(3, 7)]]
    b = ["1/6", 1]
    out = solve_linear_exact(A, b)
    assert out.feasible and len(out.kernel_basis) == 1, out
    rows = [[Fraction(v) for v in row] for row in A]
    for x, rhs in [(out.particular, b), (out.kernel_basis[0], [0, 0])]:
        assert [sum(map(Fraction.__mul__, row, x)) for row in rows] == list(map(Fraction, rhs)), x
    assert exact_rank(A + [["1/10", "4/3", "3/7"]], 3) == 2  # the sum of the two rows


def main() -> None:
    from poissonforge import cli

    cwd, runs, out = os.getcwd(), [run for group in RUNS.values() for run in group], io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        try:
            codes, stdouts = [], []
            for argv, _ in runs:
                with contextlib.redirect_stdout(io.StringIO()) as run_out:
                    codes.append(cli.main(argv))
                stdouts.append(run_out.getvalue())
            with contextlib.redirect_stdout(out):
                code = cli.main(["cohomology", "heis.json", "--grade", "1", "--format", "json"])
        finally:
            os.chdir(cwd)
    assert codes == [expected for _, expected in runs], codes
    for (argv, _), stdout in zip(runs, stdouts):
        if "json" in argv:
            assert isinstance(json.loads(stdout), dict) and stdout.count("\n") == 1, argv
    printed = {tuple(argv): stdout for (argv, _), stdout in zip(runs, stdouts)}
    argv = ("casimirs", "so3.json", "--max-degree", "2")
    assert printed[argv] == ("2 Casimir basis elements up to degree 2:\n"
                             "  1\n  x1^2 + x2^2 + x3^2\n"), printed[argv]
    casimirs = json.loads(printed[argv + ("--format", "json")])["casimirs"]
    assert casimirs == ["1", "x1^2 + x2^2 + x3^2"], casimirs
    betti = [row["betti"] for row in json.loads(out.getvalue())["rows"]]
    assert (code, betti) == (0, [1, 4, 5, 2]), (code, betti)
    check_real_reader()
    check_dense_solve()
    assert "numpy" not in sys.modules
    print("exact verbs: exit codes, JSON reports, so3 Casimirs, Heisenberg Betti numbers, "
          "real reader, dense rational solve and NumPy-free start-up as expected")


if __name__ == "__main__":
    main()
