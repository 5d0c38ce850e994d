"""Exact polynomial arithmetic, parsing, and the rational linear solver."""

import contextlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import linear_poisson, polyalg, preset
from poissonforge.poisson import _bracket_rows, graded_basis
from poissonforge.polyalg import (Poly, PolyParseError, SolveOutcome, exact_rank,
                                  format_poly, parse_poly, solve_linear_exact)


class TestPolyArithmetic:
    def test_ring_laws_randomized(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 4)
            ps = []
            for _ in range(3):
                terms = {}
                for _ in range(3):
                    e = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[e] = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                ps.append(Poly(n, {k: v for k, v in terms.items() if v}))
            a, b, c = ps
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == Poly.zero(n)

    def test_diff_product_rule(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3)) for _ in range(2)})
            b = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3)) for _ in range(2)})
            for i in range(1, n + 1):
                assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_diff_rejects_index_outside_variables(self, index):
        with pytest.raises(ValueError, match="outside 1..3"):
            Poly.variable(3, 3).diff(index)

    def test_scalar_multiplication(self):
        p = parse_poly("x1^2 - x2", 2)
        assert p * 2 == parse_poly("2*x1^2 - 2*x2", 2)
        assert p * Fraction(1, 2) == parse_poly("1/2*x1^2 - 1/2*x2", 2)

    def test_eval(self):
        p = parse_poly("1/2*x1^2*x3 - x2", 3)
        pts = np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(p.eval_numeric(pts), [5.0, -1.0])


def _assert_canonical(p: Poly):
    """What ``Poly._raw`` trusts, checked against the polynomial's re-validation."""
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0
    assert Poly(p.nvars, p.terms).terms == p.terms


class TestTrustedPath:
    """Kernel results hold the constructor's invariants; outside input is still checked."""

    def test_results_equal_their_revalidation(self):
        rng = random.Random(9)
        for _ in range(80):
            n = rng.randint(1, 3)
            a, b = (Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                             Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                             for _ in range(3)}) for _ in range(2))
            results = [a + b, a - b, (a + b) - b, a - a, -a, a * b, a * (b - a),
                       a * Fraction(-2, 3), a * 0, 0 * a, a + 1, 1 - a, a ** 3]
            results += [r.diff(i) for r in (a, a * b) for i in range(1, n + 1)]
            for r in results:
                assert r.nvars == n
                _assert_canonical(r)
            assert not (a - a) and not a * 0
            assert bool(a) == (not a.is_zero())

    @pytest.mark.parametrize("terms, error", [
        ({(1, 0, 0): 1}, ValueError),
        ({(1,): 1}, ValueError),
        ({(1, -1): 1}, ValueError),
        ({(1, 0): 0.5}, TypeError),
        ({(1, 0): 1.0}, TypeError),
        ({(1.9, 0): 1}, ValueError),
        ({(1.0, 0): 1}, ValueError),
        ({(True, 0): 1}, ValueError),
        ({(1, 0): False}, TypeError),
    ], ids=["long", "short", "negative", "float", "integral-float", "exponent-1.9",
            "exponent-1.0", "exponent-bool", "coeff-bool"])
    def test_constructor_rejects(self, terms, error):
        with pytest.raises(error):
            Poly(2, terms)

    def test_named_constructors_reject(self):
        with pytest.raises(TypeError):
            Poly.constant(2, 1.5)
        with pytest.raises(TypeError):
            Poly.monomial(2, (1, 0), 0.5)
        with pytest.raises(ValueError):
            Poly.monomial(2, (1, 0, 0))

    # what the constructors used to round or read as 1: an index or nvars is
    # an integer (no bool), a coefficient or scalar exact (no bool)
    @pytest.mark.parametrize("build, error", [
        (lambda: Poly(2.0), ValueError),
        (lambda: Poly(True, {(1,): 1}), ValueError),
        (lambda: Poly.constant(2.0, 1), ValueError),
        (lambda: Poly.variable(2, True), ValueError),
        (lambda: Poly.variable(2, 1.0), ValueError),
        (lambda: Poly.monomial(2, (0.5, 1)), ValueError),
        (lambda: parse_poly("x1", True), ValueError),
        (lambda: Poly.constant(2, True), TypeError),
        (lambda: Poly.monomial(2, (1, 0), True), TypeError),
        (lambda: Poly.variable(2, 1) + True, TypeError),
        (lambda: Poly.variable(2, 1) * True, TypeError),
    ], ids=["nvars-float", "nvars-bool", "constant-nvars", "variable-bool",
            "variable-float", "monomial-exponent", "parse-nvars-bool", "constant-bool",
            "monomial-bool", "add-bool", "mul-bool"])
    def test_constructors_refuse_rather_than_coerce(self, build, error):
        with pytest.raises(error):
            build()

    def test_index_like_integers_are_taken(self):
        assert Poly(np.int64(2), {(np.int64(1), 0): 1}) == Poly.variable(2, 1)
        assert Poly.variable(np.int32(2), np.int32(2)) == Poly.variable(2, 2)
        one = Poly.constant(2, 1)
        assert one == 1 and one != True and not one == False  # noqa: E712


class TestParsing:
    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 5)
            terms = {tuple(rng.randint(0, 3) for _ in range(n)):
                     Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                     for _ in range(4)}
            p = Poly(n, {k: v for k, v in terms.items() if v})
            assert parse_poly(format_poly(p), n) == p

    def test_grammar(self):
        assert parse_poly("1/2*x1^2*x3 - x2", 3) == Poly(
            3, {(2, 0, 1): Fraction(1, 2), (0, 1, 0): Fraction(-1)})
        assert parse_poly("0", 2).is_zero()
        assert parse_poly("-x1", 1) == Poly(1, {(1,): Fraction(-1)})

    def test_rejects_bad_input(self):
        for bad in ("x0", "x4", "x1 +", "1//2*x1", "x1^", "y1",
                    # juxtaposed terms are not a sum
                    "x1x2", "x1 x2", "2 3", "x1^2 3",
                    # a trailing '*' (found by the grammar fuzz below)
                    "0*", "x1*", "1/2*x1*",
                    # a dangling sign, whitespace only
                    "- ", "+", "x1 + +", "\t",
                    # a zero denominator or exponent, misplaced operators
                    "1/0*x1", "x1^0", "x1^2^3", "x1/2", "x 1"):
            with pytest.raises(PolyParseError):
                parse_poly(bad, 3)

    @pytest.mark.parametrize("text, named", [
        ("x1 + x2 x3", "position 8"),
        ("x1 - x2 *", "position 8"),
        ("x1 + x5", "index 5"),
        ("x2^0", "exponent 0"),
        ("3/00*x1", "3/00"),
    ])
    def test_errors_name_position_or_culprit(self, text, named):
        with pytest.raises(PolyParseError, match=named):
            parse_poly(text, 3)

    def test_rejects_non_string_text(self):
        with pytest.raises(TypeError):
            parse_poly(3, 3)

    def test_sum_is_built_without_poly_addition(self, monkeypatch):
        calls = []
        add = Poly.__add__
        monkeypatch.setattr(Poly, "__add__", lambda a, b: calls.append(1) or add(a, b))
        text = " + ".join(f"{k}*x1^{k}" for k in range(1, 201))
        p = parse_poly(text, 1)
        assert not calls
        assert p == Poly(1, {(k,): Fraction(k) for k in range(1, 201)})


@st.composite
def sparse_polys(draw):
    """(n, Poly) with n in 1..4 and up to six Fraction-coefficient terms."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * n)
    coeffs = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    return n, Poly(n, draw(st.dictionaries(exps, coeffs, max_size=6)))


_HYPOTHESIS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
_GAP = st.sampled_from(["", " ", "\t", "  ", " \t "])


@st.composite
def rendered_polys(draw):
    """(n, text, expected): drawn terms rendered as text, and their sum.

    Tokens are separated by random spaces and tabs, terms carry random sign
    runs (at least one sign after the first term) and digit runs random
    leading zeros.  ``expected`` is summed with ``Poly`` arithmetic, so the
    parser is not its own oracle.
    """
    n = draw(st.integers(1, 4))

    def digits(v):
        return "0" * draw(st.integers(0, 2)) + str(v)

    tokens, expected = [], Poly.zero(n)
    for k in range(draw(st.integers(1, 5))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=min(k, 1), max_size=3))
        tokens += signs
        coeff = Fraction(1)
        has_coeff = draw(st.booleans())
        if has_coeff:
            num = draw(st.integers(0, 40))
            tokens.append(digits(num))
            den = draw(st.one_of(st.none(), st.integers(1, 9)))
            if den is not None:
                tokens += ["/", digits(den)]
            coeff = Fraction(num, den or 1)
        exps = [0] * n
        factor = st.tuples(st.integers(1, n), st.one_of(st.none(), st.integers(1, 4)))
        factors = draw(st.lists(factor, min_size=0 if has_coeff else 1, max_size=3))
        for j, (index, power) in enumerate(factors):
            if j or has_coeff:
                tokens.append("*")
            tokens.append("x" + digits(index))
            if power is not None:
                tokens += ["^", digits(power)]
            exps[index - 1] += power or 1
        expected = expected + Poly.monomial(n, exps, (-1) ** signs.count("-") * coeff)
    return n, "".join(draw(_GAP) + tok for tok in tokens) + draw(_GAP), expected


class TestParsingProperties:
    @_HYPOTHESIS
    @given(sparse_polys())
    def test_format_parse_round_trip(self, case):
        n, p = case
        assert parse_poly(format_poly(p), n) == p

    @_HYPOTHESIS
    @given(rendered_polys())
    def test_parses_rendered_terms_to_their_sum(self, case):
        n, text, expected = case
        assert parse_poly(text, n) == expected

    @_HYPOTHESIS
    @given(st.text(alphabet="x0123456789^*/+- ", max_size=30), st.integers(1, 4))
    def test_grammar_fuzz_parses_or_raises_parse_error(self, text, n):
        try:
            p = parse_poly(text, n)
        except PolyParseError:
            return
        assert p.nvars == n
        assert parse_poly(format_poly(p), n) == p


def _exact_entry(v):
    """An entry of the model: ints stay, Fractions and rational strings convert."""
    if type(v) is int:
        return v
    if type(v) in (Fraction, str):
        return Fraction(v)
    raise ValueError(f"matrix entry {v!r} is not an exact rational")


def _per_row_rows(A, ncols=None):
    """The solver's input check, row by row: a bool is neither a key nor an entry."""
    rows, top = [], 0
    for row in A:
        if isinstance(row, dict):
            for j in row:
                if type(j) is not int or j < 0:
                    raise ValueError(f"column key {j!r} is not an int >= 0")
            top = max(top, max(row, default=-1) + 1)
            items = row.items()
        else:
            if isinstance(row, (str, bytes)):
                raise ValueError(f"'dense row' must be a sequence, got {row!r}")
            if ncols is None:
                ncols = len(row)
            if len(row) != ncols:
                raise ValueError(f"dense row of length {len(row)} in a matrix of {ncols} columns")
            items = enumerate(row)
        rows.append({j: ev for j, v in items if (ev := _exact_entry(v))})
    if ncols is None:
        ncols = top
    elif top > ncols:
        raise ValueError(f"column key {top - 1} outside 0..{ncols - 1}")
    return rows, ncols


def _outcome(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as e:
        return type(e).__name__, str(e)


@st.composite
def checked_matrices(draw):
    """(A, ncols) for the input check: mostly valid int dict rows, with odd
    keys, odd values and dense rows mixed in."""
    n = draw(st.integers(0, 5))
    ncols = draw(st.none() | st.just(n))
    odd_keys = st.booleans() | st.integers(-2, n + 1) | st.sampled_from([1.0, 2.5, "0"])
    odd_values = (st.integers(-2, 2) | st.booleans() | st.sampled_from([0.5, 2.0, None, "1/2", "x"])
                  | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    keys = st.integers(0, max(n - 1, 0)) | odd_keys if draw(st.booleans()) else st.integers(0, 4)
    values = st.integers(-3, 3).filter(bool)
    if draw(st.booleans()):
        values |= odd_values
    row = st.dictionaries(keys, values, max_size=4)
    if draw(st.booleans()):
        row |= st.lists(values, min_size=max(n - 1, 0), max_size=n + 1)
    return draw(st.lists(row, max_size=4)), ncols


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.integers(0, 9), st.integers(-40, 40)
                       | st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60)), max_size=6))
def test_over_lcm_is_the_values_over_one_denominator(values):
    ints, den = polyalg._over_lcm(values)
    assert den > 0 and math.gcd(den, *ints.values()) == 1
    assert all(type(v) is int for v in ints.values())
    assert ints.keys() == {k for k, v in values.items() if v}
    assert all(Fraction(v, den) == values[k] for k, v in ints.items())


class TestExactSolver:
    def test_particular_solution_and_kernel(self):
        # x1 + x2 = 3 with a free variable: particular solution sets it to 0
        out = solve_linear_exact([[1, 1]], [3])
        assert out.feasible
        assert out.particular == [Fraction(3), Fraction(0)]
        assert len(out.kernel_basis) == 1
        k = out.kernel_basis[0]
        assert k[0] + k[1] == 0 and any(k)

    def test_vectors_become_fractions_when_read(self):
        # the solve keeps the lifted integers; each vector is made once, on its
        # first read, and the outcome reads as the one built from those integers
        with mock.patch.object(polyalg, "_fraction_vector", wraps=polyalg._fraction_vector) as vec:
            out = solve_linear_exact([[2, 2, 0], [0, 0, 3]], [3, 1])
            assert vec.call_count == 0
            assert out._particular == ({0: 9, 2: 2}, 6)
            assert out.particular is out.particular and vec.call_count == 1
        assert (out.status, out.particular, out.kernel_basis, out.witness) == (
            "feasible", [Fraction(3, 2), Fraction(0), Fraction(1, 3)],
            [[Fraction(-1), Fraction(1), Fraction(0)]], None)
        want = SolveOutcome(3, ({0: 9, 2: 2}, 6), [({0: -1, 1: 1}, 1)])
        assert out == want and repr(out) == repr(want) and out != SolveOutcome(3)
        out = solve_linear_exact([[1, 2], [2, 4]], [1, 3])
        assert (out.status, out.particular, out.kernel_basis, out.witness) == (
            "infeasible", None, [], [Fraction(-2), Fraction(1)])
        assert out == SolveOutcome(2, witness=({0: -2, 1: 1}, 1))
        assert repr(out) == ("SolveOutcome(status='infeasible', particular=None, "
                             "kernel_basis=[], witness=[Fraction(-2, 1), Fraction(1, 1)])")

    def test_infeasibility_witness(self):
        A = [[1, 2], [2, 4]]
        b = [1, 3]
        out = solve_linear_exact(A, b)
        assert not out.feasible
        w = out.witness
        # certificate: w.A = 0 and w.b != 0
        for col in range(2):
            assert sum(w[r] * Fraction(A[r][col]) for r in range(2)) == 0
        assert sum(w[r] * Fraction(b[r]) for r in range(2)) != 0

    def test_solver_randomized(self):
        rng = random.Random(10)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(m)]
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            b = [sum(A[r][c] * x[c] for c in range(n)) for r in range(m)]
            out = solve_linear_exact(A, b)
            assert out.feasible
            s = out.particular
            for r in range(m):
                assert sum(A[r][c] * s[c] for c in range(n)) == b[r]
            for k in out.kernel_basis:
                for r in range(m):
                    assert sum(A[r][c] * k[c] for c in range(n)) == 0
            rank = exact_rank(A, n)
            assert rank == sympy.Matrix(A).rank()
            assert len(out.kernel_basis) == n - rank
            if rank < m:
                # push b out of the column space along a left-kernel vector y
                y = [Fraction(int(v.p), int(v.q)) for v in sympy.Matrix(A).T.nullspace()[0]]
                b_out = [b[r] + y[r] for r in range(m)]
                out = solve_linear_exact(A, b_out)
                assert not out.feasible
                w = out.witness
                for c in range(n):
                    assert sum(w[r] * A[r][c] for r in range(m)) == 0
                assert sum(w[r] * b_out[r] for r in range(m)) != 0

    def test_exact_rank(self):
        assert exact_rank([[1, 2], [2, 4]], 2) == 1
        assert exact_rank([[1, 0], [0, 1]], 2) == 2
        assert exact_rank([[0, 0]], 2) == 0

    @pytest.mark.parametrize("A, ncols", [
        ([{2: 1}], 2),
        ([{-1: 1}], 2),
        ([{-1: 1}], None),
        ([{"1": 1}], 2),
        ([{1.0: 1}], 2),
        ([{0: 1}, {5: 0}], 3),
        ([[1, 2, 3], [1]], None),
        ([[1, 2]], 3),
        (["12", "34"], None),
        ([b"12", b"34"], 2),
    ], ids=["key=ncols", "key=-1", "key=-1-no-ncols", "key=str", "key=float",
            "zero-entry-key-out-of-range", "short-dense-row", "dense-row-not-ncols",
            "string-rows", "bytes-rows"])
    def test_rows_are_checked_where_they_enter(self, A, ncols):
        # b sits in column ncols of the eliminated matrix: a key equal to
        # ncols must not merge with it
        with pytest.raises(ValueError, match="column key|dense row"):
            exact_rank(A, ncols)
        with pytest.raises(ValueError, match="column key|dense row"):
            solve_linear_exact(A, [1] * len(A), ncols)

    @pytest.mark.parametrize("A", [
        [{0: 1.0}], [[1, 2.0]], [{0: None}], [[None, 1]],
        [{0: True}], [[1, False]], [{True: 1}], [{False: 2}],
    ], ids=["float-in-dict", "float-dense", "none-in-dict", "none-dense",
            "bool-entry", "bool-dense", "bool-key-1", "bool-key-0"])
    def test_inexact_entries_and_bool_keys_are_refused(self, A):
        with pytest.raises(ValueError, match="not an exact rational|column key"):
            exact_rank(A, 2)
        with pytest.raises(ValueError, match="not an exact rational|column key"):
            solve_linear_exact(A, [1] * len(A), 2)

    @pytest.mark.parametrize("b, message", [
        ([0.5], "not an exact rational"), ([None], "not an exact rational"),
        ([True], "not an exact rational"), ("5", "'b' must be a sequence"),
        (b"5", "'b' must be a sequence"), ({0: 5}, "'b' must be a sequence"),
    ], ids=["float", "none", "bool", "string", "bytes", "mapping"])
    def test_inexact_right_hand_sides_are_refused(self, b, message):
        with pytest.raises(ValueError, match=message):
            solve_linear_exact([[1]], b)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(checked_matrices())
    def test_bulk_check_keeps_the_per_row_semantics(self, matrix):
        # the solver behaves as if every matrix went through the per-row
        # validator: the same rows and entry types, or the same error
        A, ncols = matrix
        b = [1] * len(A)
        want = _outcome(_per_row_rows, A, ncols)
        got = _outcome(polyalg._to_sparse_rows, A, ncols)
        assert repr(got) == repr(want)
        with mock.patch.object(polyalg, "_to_sparse_rows", _per_row_rows):
            want = _outcome(exact_rank, A, ncols), _outcome(solve_linear_exact, A, b, ncols)
        assert (_outcome(exact_rank, A, ncols), _outcome(solve_linear_exact, A, b, ncols)) == want
        # a valid int-dict matrix is trusted as _Rows, with the same answers
        top = math.inf if ncols is None else ncols
        if all(type(row) is dict and all(type(j) is int and 0 <= j < top and type(v) is int and v
                                         for j, v in row.items()) for row in A):
            rows = polyalg._Rows(A)
            assert (_outcome(exact_rank, rows, ncols),
                    _outcome(solve_linear_exact, rows, b, ncols)) == want

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(n) | st.none(),
        st.lists(st.lists(st.integers(-2, 2) | st.booleans()
                          | st.sampled_from([0.5, None, "1/2", "x", Fraction(2, 3)]),
                          min_size=n, max_size=n), max_size=4))))
    def test_a_dense_row_reads_as_the_dict_of_its_entries(self, case):
        # the same rows, entry types and column count, or the same error
        ncols, dense = case
        sparse = [dict(enumerate(row)) for row in dense]
        assert (repr(_outcome(polyalg._to_sparse_rows, dense, ncols))
                == repr(_outcome(polyalg._to_sparse_rows, sparse, ncols)))

    @pytest.mark.parametrize("b", [[1, 3, 0], [Fraction(1, 2), 1, 0]],
                             ids=["infeasible", "feasible"])
    def test_solves_leave_trusted_rows_unchanged(self, b):
        # no row is written into: b goes into column ncols of new rows, and
        # an infeasible solve transposes those for the witness
        rows = polyalg._Rows([{0: 1, 1: 2}, {0: 2, 1: 4}, {}])
        before = [dict(row) for row in rows]
        solve_linear_exact(rows, b, 2)
        assert exact_rank(rows, 2) == 1
        assert rows == before

    def test_trusted_rows_reach_the_solver_uncopied(self):
        # _Rows pass the reader as they are, and only a row with a nonzero b
        # entry is a new dict, [A | b]'s row: the others reach _rref as given
        rows = polyalg._Rows([{0: 1, 1: 2}, {0: 2, 1: 4}, {}])
        assert polyalg._to_sparse_rows(rows, 2)[0] is rows
        with mock.patch.object(polyalg, "_rref", wraps=polyalg._rref) as rref:
            solve_linear_exact(rows, [0, 3, 0], 2)
        reduced = rref.call_args_list[0].args[0]
        assert reduced[0] is rows[0] and reduced[2] is rows[2]
        assert reduced[1] == {0: 2, 1: 4, 2: 3} and rows[1] == {0: 2, 1: 4}


# ---------------------------------------------------------------------------
# The certified multi-modular path against Fraction elimination and sympy
# ---------------------------------------------------------------------------

P = 2**30 - 35  # the first prime of the supply, the largest below 2^30
_SOLVER = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@contextlib.contextmanager
def _counted_primes():
    """Spies on ``_rref`` and on ``_rref_mod_p``, which runs once per prime."""
    with mock.patch.object(polyalg, "_rref", wraps=polyalg._rref) as rref, \
            mock.patch.object(polyalg, "_rref_mod_p", wraps=polyalg._rref_mod_p) as mod_p:
        yield rref, mod_p


def _rational(v) -> Fraction:
    return Fraction(int(v.p), int(v.q))


def _sympy_answer(A, b):
    """(rank, RREF kernel basis, RREF particular solution or None) from sympy."""
    M = sympy.Matrix(A)
    n = M.cols
    kernel = [[_rational(v) for v in vec] for vec in M.nullspace()]
    R, pivots = M.row_join(sympy.Matrix(b)).rref()
    particular = None
    if n not in pivots:
        particular = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            particular[c] = _rational(R[i, n])
    return M.rank(), kernel, particular


@st.composite
def linear_systems(draw, entries=st.integers(-3, 3), max_side=4):
    """(A, b, n); half of the right-hand sides are drawn inside the column space."""
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    A = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        b = [sum(Fraction(a) * c for a, c in zip(row, x)) for row in A]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return A, b, n


@st.composite
def trapped_systems(draw):
    """Small systems with a trap planted for the first prime p.

    An entry that is a multiple of p, an entry with denominator p, or a 2x2
    minor equal to p: each can drop the rank mod p or spoil the lift.
    """
    A, b, n = draw(linear_systems(max_side=5))
    A = [list(row) for row in A]
    trap = draw(st.sampled_from(["multiple", "denominator", "minor"]))
    if trap == "minor" and len(A) >= 2 and n >= 2:
        A[0][:2], A[1][:2] = [1, 1], [1, 1 + P]
    else:
        i, j = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        A[i][j] = c * P if trap == "multiple" else Fraction(c, P)
    return A, b, n


@st.composite
def multi_prime_matrices(draw):
    """(rows, ncols) whose RREF entries lie far past one prime's Wang bound.

    Either m < n dense rows with entry k/(2^62 + s + j) in column j, k in
    -9..9 and nonzero: a kernel vector of the integer matrix of the k has a
    nonzero entry at some pivot p, and the RREF moves it by
    (2^62 + s + p)/(2^62 + s + f), whose terms share at most a factor
    |p - f| < 6.  Or a dense 20 x 40 matrix with entries -9..9 from a
    seeded generator, whose 20 x 20 minors reach about 10^24.
    """
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        rows = [{j: v for j in range(40) if (v := rng.randint(-9, 9))} for _ in range(20)]
        return rows, 40
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, 6))
    base = 2**62 + draw(st.integers(0, 2**64))
    k = st.integers(-9, 9).filter(bool)
    return [{j: Fraction(draw(k), base + j) for j in range(n)} for _ in range(m)], n


def _assert_exact(A, b, n) -> int:
    """Check the public answers against the reference elimination and sympy.

    Returns the number of primes the public calls ran beyond one per
    ``_rref``.
    """
    rank, kernel, particular = _sympy_answer(A, b)
    expected = _by_elimination(A, b, n)
    with _counted_primes() as (rref, mod_p):
        assert exact_rank(A, n) == rank
        out = solve_linear_exact(A, b, n)
    assert out.feasible == expected.feasible == (particular is not None)
    if out.feasible:
        assert out.kernel_basis == expected.kernel_basis == kernel
        assert out.particular == expected.particular == particular
    else:
        w = out.witness
        assert w == expected.witness
        assert all(sum(wi * Fraction(row[c]) for wi, row in zip(w, A)) == 0 for c in range(n))
        assert sum(wi * Fraction(bi) for wi, bi in zip(w, b)) == 1
    return mod_p.call_count - rref.call_count


def _reference_eliminate(rows, ncols):
    """Fraction Gauss-Jordan that scans every row for each pivot column."""
    nrows = len(rows)
    used = [False] * nrows
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(nrows) if not used[i] and col in rows[i]), None)
        if pivot is None:
            continue
        used[pivot] = True
        pivots.append((col, pivot))
        pv = rows[pivot][col]
        rows[pivot] = {j: Fraction(v) / pv for j, v in rows[pivot].items()}
        for i in range(nrows):
            f = rows[i].get(col)
            if i == pivot or not f:
                continue
            for j, v in rows[pivot].items():
                s = rows[i].get(j, 0) - f * v
                if s:
                    rows[i][j] = s
                else:
                    rows[i].pop(j, None)
    return pivots


def _reference_rref(rows, ncols):
    """What ``_rref_answer`` reads, from ``_reference_eliminate`` on a copy of ``rows``."""
    rows = [dict(row) for row in rows]
    pivots = _reference_eliminate(rows, ncols)
    piv = [col for col, _ in pivots]
    free = [f for f in range(ncols) if f not in piv]
    index = {f: c for c, f in enumerate(free)}
    entries = [(p, index[f], -v) for p, i in pivots for f, v in rows[i].items() if f != p]
    return piv, free, sorted(entries)


def _by_elimination(A, b, n):
    """The RREF answer to ``A x = b`` from the reference elimination of ``[A | b]``.

    The witness is the RREF particular solution of ``[A^T; b^T] w = (0, ..., 0, 1)``.
    """
    rows = [{j: Fraction(v) for j, v in enumerate([*row, c]) if v} for row, c in zip(A, b)]
    piv, free, entries = _reference_rref(rows, n + 1)
    if n in piv:
        m = len(A)
        transpose = [[A[i][j] for i in range(m)] for j in range(n)] + [list(b)]
        witness = _by_elimination(transpose, [0] * n + [1], m).particular
        return SolveOutcome(m, witness=_integer_form(witness))
    vectors = [[Fraction(int(j == f)) for j in range(n)] for f in free]
    for p, c, v in entries:
        vectors[c][p] = v
    *kernel, last = vectors  # the vector of free column n, cut to A's columns
    return SolveOutcome(n, _integer_form([-v for v in last]), list(map(_integer_form, kernel)))


def _integer_form(vector):
    """A list of Fractions as the ``(ints, den)`` a ``SolveOutcome`` is built from."""
    return polyalg._over_lcm(dict(enumerate(vector)))


def _rref_answer(rows, ncols):
    """``_rref``'s pivots, free columns and sorted kernel entries, in the form
    of ``_reference_rref``: ``(p, c, v)`` for the value v at pivot column p
    of the kernel vector of the c-th free column."""
    piv, kernel = polyalg._rref(rows, ncols)
    entries = [(p, c, Fraction(v, den)) for c, (f, (ints, den)) in enumerate(kernel.items())
               for p, v in ints.items() if p != f]
    return piv, list(kernel), sorted(entries)


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): sparse int rows, some of them empty."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry, max_size=n),
                         min_size=m, max_size=m))
    return rows, n


def _gauss_jordan_mod_p(rows, ncols, p):
    """``(piv, tails)`` of ``_rref_mod_p`` from a dense Gauss-Jordan over GF(p)
    that reduces every row, column by column."""
    dense = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    piv = []
    for col in range(ncols):
        r = len(piv)
        i = next((i for i in range(r, len(dense)) if dense[i][col]), None)
        if i is None:
            continue
        dense[r], dense[i] = dense[i], dense[r]
        inv = pow(dense[r][col], -1, p)
        dense[r] = [v * inv % p for v in dense[r]]
        for k, other in enumerate(dense):
            if k != r and (f := other[col]):
                dense[k] = [(a - f * b) % p for a, b in zip(other, dense[r])]
        piv.append(col)
    return piv, [{j: v for j, v in enumerate(dense[r]) if v and j != c}
                 for r, c in enumerate(piv)]


@st.composite
def settling_matrices(draw):
    """(rows, ncols): sparse int rows rich in single-entry rows and in pairs
    whose difference is a unit vector e_j.  Such a pair puts e_j in the row
    space, so the pivot row of j is a unit vector, and clearing j from an
    earlier pivot row can empty that row's tail."""
    n = draw(st.integers(1, 8))
    col, entry = st.integers(0, n - 1), st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(st.dictionaries(col, entry, max_size=n), max_size=4))
    rows += [{j: v} for j, v in draw(st.lists(st.tuples(col, entry), max_size=6))]
    for row, j in draw(st.lists(st.tuples(st.dictionaries(col, entry, min_size=1, max_size=n),
                                          col), max_size=3)):
        twin = {**row, j: row.get(j, 0) + 1}
        rows += [row, {c: v for c, v in twin.items() if v}]
    return draw(st.permutations(rows)), n


class TestCertifiedSolver:
    @_SOLVER
    @given(settling_matrices(), st.sampled_from([5, 7, P]))
    def test_skipped_rows_leave_the_reduction_unchanged(self, matrix, p):
        # _rref_mod_p skips a row whose columns are all pivots with an empty
        # tail; a row it skips wrongly loses a pivot or a tail entry.  The
        # given rows that yielded the pivots span the row space alone
        rows, n = matrix
        piv, tails, pivot_rows = polyalg._rref_mod_p(rows, p)
        assert (piv, tails) == _gauss_jordan_mod_p(rows, n, p)
        assert len(pivot_rows) == len(piv)
        assert all(any(row is given for given in rows) for row in pivot_rows)
        assert polyalg._rref_mod_p(pivot_rows, p)[:2] == (piv, tails)

    @_SOLVER
    @given(sparse_matrices())
    def test_check_refuses_an_entry_off_by_one(self, matrix):
        # the certificate skips the rows off the kernel's support; every
        # entry at a pivot column meets a nonzero column of M, so one such
        # entry off by one must fail the check
        rows, n = matrix
        _, kernel = polyalg._rref(rows, n)
        for f, (ints, den) in kernel.items():
            for j in ints.keys() - {f}:
                wrong = {**kernel, f: ({**ints, j: ints[j] + 1}, den)}
                assert not polyalg._check_exact(rows, n, wrong)

    @_SOLVER
    @given(sparse_matrices(), st.data())
    def test_rref_ignores_row_order_row_scale_and_entry_type(self, matrix, data):
        # the RREF depends on the row space alone; a scale of p empties the
        # row mod p, and 2^40 + 1 gives entries far above p for the exact check
        rows, n = matrix
        answer = _rref_answer(rows, n)
        order = data.draw(st.permutations(range(len(rows))))
        i = data.draw(st.integers(0, len(rows) - 1))
        scale = data.draw(st.integers(-50, 50).filter(bool) | st.sampled_from([P, -P, 2**40 + 1]))
        moved = [dict(rows[k]) for k in order]
        moved[i] = {j: scale * v for j, v in moved[i].items()}
        assert _rref_answer(moved, n) == answer
        as_fractions = [{j: Fraction(v) for j, v in row.items()} for row in rows]
        assert _rref_answer(as_fractions, n) == answer

    @_SOLVER
    @given(sparse_matrices())
    def test_kernel_is_one_integer_form(self, matrix):
        # the vectors _check_exact certifies are the answer: by ascending
        # free column f, nonzero ints over a positive denominator with gcd 1,
        # den at f and the rest at pivots, and M ints = 0 in exact integers
        rows, n = matrix
        piv, kernel = polyalg._rref(rows, n)
        assert list(kernel) == [f for f in range(n) if f not in piv]
        for f, (ints, den) in kernel.items():
            assert den > 0 and ints[f] == den
            assert math.gcd(den, *ints.values()) == 1
            assert 0 not in ints.values() and set(ints) <= set(piv) | {f}
            assert all(sum(a * ints.get(j, 0) for j, a in row.items()) == 0 for row in rows)

    @_SOLVER
    @given(linear_systems())
    def test_small_integer_systems_are_certified(self, system):
        # every minor of [A | b] and of its witness matrix is below
        # 6^4 = 1296 < p and every RREF entry a ratio of two of them, so the
        # first prime is lucky and each lift exists: no _rref, feasible or
        # not, may need a second prime
        assert _assert_exact(*system) == 0

    @_SOLVER
    @given(linear_systems(entries=st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
                          max_side=5))
    def test_rational_systems_match_both_oracles(self, system):
        _assert_exact(*system)

    @_SOLVER
    @given(trapped_systems())
    def test_prime_traps_still_give_the_exact_answer(self, system):
        _assert_exact(*system)

    @pytest.mark.parametrize("A, rank, primes", [
        ([[P]], 1, 2),
        ([[1, 1], [1, 1 + P]], 2, 2),
        # the integer row (1, p): the kernel entry -p lifts once the
        # modulus passes 2 p^2, from the third prime on, and lifts run
        # after 1, 2 and 4 primes
        ([[Fraction(1, P), 1]], 1, 4),
    ], ids=["entry=p", "minor=p", "denominator=p"])
    def test_unlucky_prime_falls_back(self, A, rank, primes):
        # the first prime's answer fails the check, so _rref moves on to
        # the next primes until one answer is certified
        n = len(A[0])
        with _counted_primes() as (rref, mod_p):
            assert exact_rank(A, n) == rank
        assert (rref.call_count, mod_p.call_count) == (1, primes)
        assert _assert_exact(A, [0] * len(A), n) == 2 * (primes - 1)

    def test_a_prime_with_fewer_pivots_is_dropped(self):
        # the RREF entry 10^5 lies past Wang's bound at the first prime, so
        # that lift fails; the second prime q divides the pivot minor q and
        # gives one pivot, so it is dropped; the third agrees with the
        # first, and the product of the two lifts the entry
        q = 2**30 - 41
        A = [[1, 1, 0], [1, 1 + q, 10**5 * q]]
        assert list(itertools.islice(polyalg._primes(), 2)) == [P, q]
        assert polyalg._rref_mod_p(polyalg._to_sparse_rows(A)[0], q)[0] == [0]
        with _counted_primes() as (rref, mod_p):
            assert exact_rank(A, 3) == 2
        assert (rref.call_count, mod_p.call_count) == (1, 3)
        _assert_exact(A, [0, 0], 3)

    @pytest.mark.parametrize("A, kernel", [
        ([[2**70, 1], [1, 1]], []),
        ([[2**70, 2**70]], [[-1, 1]]),
    ], ids=["full-rank", "products-past-2^63"])
    def test_large_entries_are_certified(self, A, kernel):
        # the exact check multiplies Python ints, so no entry is too large
        # for the first prime's answer
        n = len(A[0])
        with _counted_primes() as (rref, mod_p):
            assert exact_rank(A, n) == n - len(kernel)
            assert solve_linear_exact(A, [0] * len(A), n).kernel_basis == kernel
        assert mod_p.call_count == rref.call_count == 2
        assert _assert_exact(A, [0] * len(A), n) == 0

    def test_lift_meets_its_contract(self):
        # every n/d within Wang's bound comes back from its residue, and a
        # residue with no such n/d gives None
        bound = math.isqrt(P // 2)
        assert bound == 23170
        for num in (-bound, -7, -1, 0, 1, 5, bound):
            for den in (1, 2, 9, bound - 1, bound):
                if math.gcd(num, den) == 1:
                    assert polyalg._lift(num * pow(den, -1, P) % P, P, bound) == (num, den)
        assert polyalg._lift(pow(40000, -1, P), P, bound) is None
        # with a composite modulus, Euclid can stop at num and den with a
        # common factor (a prime never does): the lift must refuse them
        for u in range(1, 210):
            frac = polyalg._lift(u, 210, 10)
            if frac is not None:
                num, den = frac
                assert (num - den * u) % 210 == 0
                assert abs(num) <= 10 and 1 <= den <= 10 and math.gcd(num, den) == 1

    def test_lift_bound_falls_back(self):
        # the kernel vector (-1/40000, 1) has a denominator above Wang's
        # bound at the first prime and below it at the product of two
        with _counted_primes() as (rref, mod_p):
            out = solve_linear_exact([[40000, 1]], [0])
        assert (rref.call_count, mod_p.call_count) == (1, 2)
        assert out.kernel_basis == [[Fraction(-1, 40000), Fraction(1)]]

    @_SOLVER
    @given(linear_systems(entries=st.integers(-2, 2), max_side=6))
    def test_column_index_keeps_the_pivot_rule(self, system):
        # on [A | b], the matrix a solve eliminates
        A, b, n = system
        augmented = [list(row) + [c] for row, c in zip(A, b)]
        rows, _ = polyalg._to_sparse_rows(augmented, n + 1)
        assert _rref_answer(rows, n + 1) == _reference_rref(rows, n + 1)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(multi_prime_matrices())
    def test_entries_past_one_prime_take_several(self, matrix):
        rows, n = matrix
        with _counted_primes() as (_, mod_p):
            answer = _rref_answer(rows, n)
        assert mod_p.call_count >= 2
        assert answer == _reference_rref(rows, n)

    def test_lifts_follow_a_geometric_schedule(self):
        # 7 x 8 entries k/d, d in 2^62..2^64: the RREF entries need hundreds
        # of primes, and a lift after each one would re-run Wang on every
        # modulus; lifting at 1, 2, 4, ... folded primes needs a log of them
        rng = random.Random(3)
        nonzero = [k for k in range(-9, 10) if k]
        rows = [{j: Fraction(rng.choice(nonzero), rng.randint(2**62, 2**64)) for j in range(8)}
                for _ in range(7)]
        with _counted_primes() as (_, mod_p), \
                mock.patch.object(polyalg, "_lift_kernel", wraps=polyalg._lift_kernel) as lifts:
            answer = _rref_answer(rows, 8)
        assert mod_p.call_count > 100
        assert lifts.call_count <= mod_p.call_count.bit_length()
        assert answer == _reference_rref(rows, 8)

    def test_prime_supply_counts_down_from_below_2_30(self):
        expected = [2**30]
        for _ in range(50):
            expected.append(sympy.prevprime(expected[-1]))
        primes = list(itertools.islice(polyalg._primes(), 50))
        assert primes == expected[1:]
        assert all(map(sympy.isprime, primes))

    def test_miller_rabin_is_exact_below_its_bound(self):
        # strong pseudoprimes: 2047 to base 2, 1373653 to 2 and 3, 25326001
        # to 2, 3 and 5; 3215031751, the first to 2, 3, 5 and 7, is where
        # the test stops being exact
        for n in [*range(9, 20000, 2), 2047, 1373653, 25326001, P]:
            assert polyalg._is_prime(n) == sympy.isprime(n)
        assert polyalg._is_prime(3215031751)

    def test_su3_matrices_take_the_certified_path(self):
        # the su(3) benchmark matrices: a second prime would cost a second
        # elimination without changing any answer
        pi = linear_poisson(preset("su3"))
        ones = [1] * 8
        with _counted_primes() as (rref, mod_p):
            for k, l, rank in ((3, 1, 280), (1, 2, 253), (2, 2, 755)):
                basis = graded_basis(8, k, l, ones)
                assert exact_rank(list(_bracket_rows(pi, basis)[1].values()), len(basis)) == rank
            monos = graded_basis(8, 0, 4, ones)[::-1]
            A = list(_bracket_rows(pi, monos)[1].values())
            out = solve_linear_exact(A, [0] * len(A), ncols=len(monos))
        assert mod_p.call_count == rref.call_count == 4
        assert len(out.kernel_basis) == 1  # the square of the quadratic Casimir
