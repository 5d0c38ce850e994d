"""Exact polynomial arithmetic, parsing, and the rational linear solver."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge.polyalg import (Poly, PolyParseError, exact_rank,
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

    def test_scalar_multiplication(self):
        p = parse_poly("x1^2 - x2", 2)
        assert p * 2 == parse_poly("2*x1^2 - 2*x2", 2)
        assert p * Fraction(1, 2) == parse_poly("1/2*x1^2 - 1/2*x2", 2)

    def test_eval(self):
        p = parse_poly("1/2*x1^2*x3 - x2", 3)
        assert p.eval_exact([2, 1, 3]) == Fraction(5)
        pts = np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(p.eval_numeric(pts), [5.0, -1.0])


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
                    "0*", "x1*", "1/2*x1*"):
            with pytest.raises(PolyParseError):
                parse_poly(bad, 3)


@st.composite
def sparse_polys(draw):
    """(n, Poly) with n in 1..4 and up to six Fraction-coefficient terms."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * n)
    coeffs = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    return n, Poly(n, draw(st.dictionaries(exps, coeffs, max_size=6)))


_HYPOTHESIS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class TestParsingProperties:
    @_HYPOTHESIS
    @given(sparse_polys())
    def test_format_parse_round_trip(self, case):
        n, p = case
        assert parse_poly(format_poly(p), n) == p

    @_HYPOTHESIS
    @given(st.text(alphabet="x0123456789^*/+- ", max_size=30), st.integers(1, 4))
    def test_grammar_fuzz_parses_or_raises_parse_error(self, text, n):
        try:
            p = parse_poly(text, n)
        except PolyParseError:
            return
        assert p.nvars == n
        assert parse_poly(format_poly(p), n) == p


class TestExactSolver:
    def test_particular_solution_and_kernel(self):
        # x1 + x2 = 3 with a free variable: particular solution sets it to 0
        out = solve_linear_exact([[1, 1]], [3])
        assert out.feasible
        assert out.particular == [Fraction(3), Fraction(0)]
        assert len(out.kernel_basis) == 1
        k = out.kernel_basis[0]
        assert k[0] + k[1] == 0 and any(k)

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
