"""The exact verbs on the standard library alone: no verb may load NumPy.

``INPUTS`` are the JSON files the runs read, beside the su3 preset's table,
and ``RUNS`` the CLI argv lists, grouped by verb, each with its expected
exit code: a success and an input error per verb, for ``check`` and
``casimirs`` a field and a table of 10^30 variables, refused where
``nvars`` and ``dim`` are read, for ``check`` a field whose ``nvars`` has
5000 digits, more than ``json.load`` reads, one whose ``terms`` is the
string ``""``, not a list, and the README jet, which is
not Poisson, so its witness [pi, pi] is the self-bracket the Schouten
kernel forms once and doubles, for ``cohomology`` the su3
table at grade 2 up to degree 3, whose last degree is certified on the
columns off the pivot rows of the degree before, for ``linearize`` a
nonlinear so3 jet that takes three gauge rounds, so that ``ad_exp``'s packed
Lie series, ``bch`` and the solved rounds of ``homotopy_solve`` run, the so3
structure times 1 + |x|^2 to order 16, whose later rounds compose by several
steps of ``bch``'s Lie series, and a
jet with the so3 linear part that is not Maurer-Cartan, its [gamma, gamma]
nonzero in grade 2, which the gauge loop refuses only after its first
round fails, when gamma is checked, and for
``prolong`` the obstructed README jet, whose failed solve is one elimination
of its system: the witness is solved only when first read, and no verb reads
it, a jet whose correction solves but whose own bracket
[eta, eta] survives in grade 3, obstructed without a certificate, and
x3^K d1^d2 + x1*x3^K d1^d3 at K = 10^5, obstructed at grade 2K + 2, whose
basis is built only at the fiber degrees its 162 columns hold.
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
the su3 Betti numbers ``[1, 0, 0, 1]``, the so3 Casimir basis ``1``, ``x1^2 + x2^2 + x3^2`` in both renderings (its
elimination skips the rows that unit pivot rows settle, and its certificate
the rows off the kernel's support), the Betti numbers ``[1, 4, 5, 2]``, that
the reader refuses a ``bool``, a NaN and, when ``positive``, a value <= 0,
that the solution and the kernel vector satisfy the system exactly, the
rank 2, the jet's JSON witness ``2*x3^2`` at ``d1^d2^d3``, the so3 jet's 3
rounds and its gauge field ``SO3_JET_GAUGE``, whose text rendering is the
``repr`` of the field read back from that JSON, the defective jet's
error line ``SO3_DEFECT_ERROR``, that each of the so3 jet's
two ``linearize`` runs makes at most ``SO3_JET_FRACTIONS`` ``Fraction``s
(``fractions_made``) and each obstructed ``prolong`` run none, that the
README jet's certificate, read through ``prolong_step``, takes the
transposed solve and has w A = 0 and w . b = 1 in integers on the rows that
``multivector._bracket_rows`` builds, and that NumPy was never imported:

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
    # ad_exp(x2^2 d1 + x1*x2 d3, pi_so3, 4): three gauge rounds, each one an ad_exp
    "so3_jet": {"nvars": 3, "weights": [1, 1, 1], "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "1/2*x2^3 + x1*x2 + x3"},
        {"indices": [1, 3],
         "poly": "-2*x1*x2^3 - x1^2*x2 - 2*x2^3 - 3/2*x2^2*x3 - 2*x1*x2 - x1*x3 - x2"},
        {"indices": [2, 3], "poly": "1/2*x2^4 + x1*x2^2 + x2^2 + x2*x3 + x1"}]},
    # the so3 structure times 1 + |x|^2, a Casimir factor: Poisson, and cubic
    "so3_cubic": {"nvars": 3, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "x1^2*x3 + x2^2*x3 + x3^3 + x3"},
        {"indices": [2, 3], "poly": "x1^3 + x1*x2^2 + x1*x3^2 + x1"},
        {"indices": [1, 3], "poly": "-x1^2*x2 - x2^3 - x2*x3^2 - x2"}]},
    # the so3 linear part plus x1^2 d1^d2: [gamma, gamma] has a grade-2 piece
    "so3_defect": {"nvars": 3, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "x1^2 + x3"}, {"indices": [1, 3], "poly": "-x2"},
        {"indices": [2, 3], "poly": "x1"}]},
    # weights (0, 1, 1, 1): at grade 3 the solved correction's own bracket survives
    "uncertified": {"nvars": 4, "weights": [0, 1, 1, 1], "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "x4"}, {"indices": [1, 3], "poly": "x1*x2 + 2*x4"},
        {"indices": [1, 4], "poly": "-2*x1*x2"}]},
    # obstructed at grade 200002; its correction basis has fiber degree 100001 and up
    "tall_jet": {"nvars": 3, "weights": [0, 0, 1], "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "x3^100000"}, {"indices": [1, 3], "poly": "x1*x3^100000"}]},
    "huge_field": {"nvars": 10**30, "grade": 2, "terms": []},
    "string_terms": {"nvars": 3, "grade": 2, "terms": ""},
    "huge_table": {"dim": 10**30, "C": []},
    # as text, since json.dump cannot write an integer past int()'s digit limit
    "long_field": '{"nvars": ' + "9" * 5000 + ', "grade": 2, "terms": []}',
}

RUNS = {
    "check": [(["check", "so3.json"], 0), (["check", "jet.json"], 1), (["check", "vf.json"], 2),
              (["check", "huge_field.json"], 2), (["check", "long_field.json"], 2),
              (["check", "string_terms.json"], 2)],
    "casimirs": [(["casimirs", "so3.json", "--max-degree", "2"], 0),
                 (["casimirs", "so3.json", "--max-degree", "-1"], 2),
                 (["casimirs", "huge_table.json"], 2)],
    "cohomology": [(["cohomology", "so3.json", "--grade", "2"], 0),
                   (["cohomology", "su3.json", "--grade", "2", "--max-degree", "3"], 0),
                   (["cohomology", "so3.json", "--grade", "-1"], 2)],
    "linearize": [(["linearize", "so3.json", "--truncate", "4"], 0),
                  (["linearize", "so3_jet.json", "--truncate", "4"], 0),
                  (["linearize", "so3_cubic.json", "--truncate", "16"], 0),
                  (["linearize", "so3_defect.json", "--truncate", "3"], 2),
                  (["linearize", "so3.json", "--base-degree-cap", "-1"], 2)],
    "prolong": [(["prolong", "jet.json", "--weights", "0,0,1"], 1), (["prolong", "so3.json"], 0),
                (["prolong", "uncertified.json", "--base-degree-cap", "2"], 1),
                (["prolong", "tall_jet.json", "--weights", "0,0,1"], 1),
                (["prolong", "jet.json", "--grade", "-1"], 2)],
}
# the gauge field of ``linearize so3_jet.json --truncate 4``
SO3_JET_GAUGE = {"nvars": 3, "weights": [1, 1, 1], "grade": 1, "terms": [
    {"indices": [1], "poly": "x1^2*x2*x3 + 1/2*x1^2*x3^2 - 1/4*x2^4 + 1/2*x2^3*x3"
                             " + 3/4*x2^2*x3^2 + 1/2*x1*x2^2 + x1*x2*x3 + x2^2 + x2*x3"},
    {"indices": [2], "poly": "-x1*x2^2*x3 - x1*x2*x3^2 - x1^2*x3 - 1/2*x2^2*x3"},
    {"indices": [3], "poly": "-1/2*x2^2*x3"}]}
# the error line of ``linearize so3_defect.json --truncate 3``
SO3_DEFECT_ERROR = ("error: gamma is not Maurer-Cartan mod grade 3: "
                    "[gamma,gamma] has grade-2 defect\n")
# the most ``Fraction``s one ``linearize so3_jet.json`` run may make: its solves hand
# their integers to the gauge field, the field's JSON and text are read and
# written from its numerators, and ``bch``'s series scales its fields by integers
# over one denominator, so the run makes none
SO3_JET_FRACTIONS = 10
for _runs in RUNS.values():
    _runs += [(argv + ["--format", "json"], code) for argv, code in _runs if code != 2]


def write_inputs(directory: str) -> None:
    from poissonforge.liealg import preset

    for name, obj in {**INPUTS, "su3": preset("su3").to_json_obj()}.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))


@contextlib.contextmanager
def fractions_made():
    """Count in ``made[0]`` the ``Fraction.__new__`` calls inside the block.  From
    Python 3.12 on, ``Fraction`` arithmetic builds its results without that
    call, so there only the ``Fraction``s built from numbers are counted, such
    as the entries of a solver's vector."""
    made, new = [0], Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield made
    finally:
        Fraction.__new__ = new


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


def check_prolong_certificate() -> None:
    """The README jet's ``prolong_step`` certificate w, read through the library,
    against the integer rows R of ``_bracket_rows`` on the solved basis (the
    matrix times ``den``) and the right-hand side's integers z over ``rhs.den``:
    with L the lcm of w's denominators and W = L w, W R = 0 and W z = L rhs.den."""
    import math
    from poissonforge import formal
    from poissonforge.multivector import PolyMVF, _bracket_rows

    solve, calls = formal._solve_bracket_equation, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    formal._solve_bracket_equation = spy
    try:
        res = formal.prolong_step(PolyMVF.from_json_obj(INPUTS["jet"]), 4)
    finally:
        formal._solve_bracket_equation = solve
    (pi, rhs, basis), kwargs = calls.pop()
    assert res.status == "obstructed" and not calls, res
    _, packed, decode = _bracket_rows(pi, basis, kwargs["restrict_grade"])
    rows = {decode(key): row for key, row in packed.items()}
    z = {(legs, exps): c for (_, legs, exps), c in rhs._ints.items()}
    keys, w = sorted(rows.keys() | z.keys()), res.certificate
    L = math.lcm(*(v.denominator for v in w))
    W = [v.numerator * (L // v.denominator) for v in w]
    assert len(W) == len(keys) and any(W), w
    for col in range(len(basis)):
        assert sum(Wi * rows.get(key, {}).get(col, 0) for Wi, key in zip(W, keys)) == 0, col
    assert sum(Wi * z.get(key, 0) for Wi, key in zip(W, keys)) == L * rhs.den


def main() -> None:
    from poissonforge import cli
    from poissonforge.multivector import PolyMVF

    cwd, runs, out = os.getcwd(), [run for group in RUNS.values() for run in group], io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        try:
            codes, stdouts, stderrs, made = [], [], [], []
            for argv, _ in runs:
                with contextlib.redirect_stdout(io.StringIO()) as run_out, \
                        contextlib.redirect_stderr(io.StringIO()) as run_err, fractions_made() as n:
                    codes.append(cli.main(argv))
                stdouts.append(run_out.getvalue())
                stderrs.append(run_err.getvalue())
                made.append(n[0])
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
    witness = json.loads(printed[("check", "jet.json", "--format", "json")])["witness"]
    assert witness["terms"] == [{"indices": [1, 2, 3], "poly": "2*x3^2"}], witness
    su3 = json.loads(printed[("cohomology", "su3.json", "--grade", "2", "--max-degree", "3",
                              "--format", "json")])
    assert [row["betti"] for row in su3["rows"]] == [1, 0, 0, 1], su3
    argv = ("linearize", "so3_jet.json", "--truncate", "4")
    gauge = json.loads(printed[argv + ("--format", "json")])
    assert (gauge["rounds"], gauge["X"]) == (3, SO3_JET_GAUGE), gauge
    field = PolyMVF.from_json_obj(gauge["X"])
    assert printed[argv] == f"equivalent after 3 rounds\ngauge vector field: {field!r}\n", argv
    errors = {tuple(argv): stderr for (argv, _), stderr in zip(runs, stderrs)}
    defect = errors[("linearize", "so3_defect.json", "--truncate", "3")]
    assert defect == SO3_DEFECT_ERROR, defect
    made = {tuple(run): n for (run, _), n in zip(runs, made)}
    for key in (argv, argv + ("--format", "json")):
        assert made[key] <= SO3_JET_FRACTIONS, (key, made[key])
    for run, expected in RUNS["prolong"]:
        assert expected != 1 or made[tuple(run)] == 0, (run, made[tuple(run)])
    betti = [row["betti"] for row in json.loads(out.getvalue())["rows"]]
    assert (code, betti) == (0, [1, 4, 5, 2]), (code, betti)
    check_real_reader()
    check_dense_solve()
    check_prolong_certificate()
    assert "numpy" not in sys.modules
    print("exact verbs: exit codes, JSON reports, so3 Casimirs, jet witness, so3 jet gauge "
          "and its Fraction count, Fraction-free obstructed prolong runs, refused non-MC "
          "jet, su3 and Heisenberg Betti numbers, real reader, dense rational solve, the "
          "jet's prolong certificate and NumPy-free start-up as expected")


if __name__ == "__main__":
    main()
