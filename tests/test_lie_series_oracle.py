"""Formal gauges as changes of coordinates: an oracle that shares no bracket.

For a vector field X of order >= 1, ``ad_exp(X, pi, D)`` is the D-jet of the
bivector pi' that the time-one flow psi = exp(X) carries to pi.  Here psi is
the Lie series psi_i = sum_k X^k(x_i)/k!, X acting on sympy polynomials as a
derivation, and the check is the change of coordinates itself,

    Dpsi . pi' . Dpsi^T  ==  pi o psi      modulo degree > D,

entry by entry.  The weights are all ones, so the grade of a coefficient is
its degree.  Only sympy sums, products and derivatives are used, with the
monomials above the bound dropped after each product; the package builds the
inputs and its results are read only through ``.terms``.
"""

import importlib.util
import itertools
import os
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import Poly, PolyMVF, ad_exp, bch, formal_linearize, linear_poisson, preset


def _sym(poly, xs) -> sympy.Poly:
    """A package polynomial as a sympy one over QQ."""
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(xs): 0}, *xs, domain=sympy.QQ)


def _jet(p: sympy.Poly, D: int) -> sympy.Poly:
    """``p`` without its monomials of degree > D."""
    terms = {e: c for e, c in p.terms() if sum(e) <= D}
    return sympy.Poly.from_dict(terms or {(0,) * len(p.gens): 0}, *p.gens, domain=sympy.QQ)


def _lie_series(X, xs, D: int) -> list:
    """psi_i = sum_k X^k(x_i)/k! up to degree D + 1, the degree Dpsi needs."""
    zero = sympy.Poly(0, *xs, domain=sympy.QQ)
    coefficients = [zero] * len(xs)
    for (i,), p in X.terms.items():
        coefficients[i - 1] = _sym(p, xs)
    psi = []
    for x in xs:
        term = acc = sympy.Poly(x, *xs, domain=sympy.QQ)
        k = 0
        while not term.is_zero:
            k += 1
            applied = sum((_jet(a * term.diff(y), D + 1) for a, y in zip(coefficients, xs)), zero)
            term = applied * sympy.Rational(1, k)
            acc += term
        psi.append(acc)
    return psi


def _matrix(pi, xs) -> list:
    """The skew matrix of ``pi``: entry (i, j) is pi(dx_i, dx_j)."""
    zero = sympy.Poly(0, *xs, domain=sympy.QQ)
    P = [[zero] * len(xs) for _ in xs]
    for (i, j), p in pi.terms.items():
        P[i - 1][j - 1] = _sym(p, xs)
        P[j - 1][i - 1] = -P[i - 1][j - 1]
    return P


def _compose(p: sympy.Poly, psi: list, D: int) -> sympy.Poly:
    """p(psi_1, ..., psi_n) modulo degree > D."""
    out = sympy.Poly(0, *p.gens, domain=sympy.QQ)
    for exps, c in p.terms():
        monomial = sympy.Poly(c, *p.gens, domain=sympy.QQ)
        for psi_i, e in zip(psi, exps):
            for _ in range(e):
                monomial = _jet(monomial * psi_i, D)
        out += monomial
    return out


def _assert_carries(X, pi_new, pi, D: int):
    """exp(X) carries pi_new to pi modulo degree > D, entry by entry."""
    n = pi.nvars
    xs = sympy.symbols(f"x1:{n + 1}")
    psi = _lie_series(X, xs, D)
    P, Q = _matrix(pi_new, xs), _matrix(pi, xs)
    J = [[psi_a.diff(x) for x in xs] for psi_a in psi]
    zero = sympy.Poly(0, *xs, domain=sympy.QQ)
    for a, b in itertools.combinations(range(n), 2):
        pushed = sum((_jet(J[a][i] * _jet(P[i][j] * J[b][j], D), D)
                      for i, j in itertools.product(range(n), repeat=2)), zero)
        assert pushed == _compose(Q[a][b], psi, D), (a + 1, b + 1)


def _fields(n: int, grade: int, degrees: set):
    """Fields whose coefficients have up to 3 monomials of the given degrees."""
    monomials = [e for e in itertools.product(range(max(degrees) + 1), repeat=n)
                 if sum(e) in degrees]
    coefficient = st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).filter(bool),
                                  max_size=3)
    legs = list(itertools.combinations(range(1, n + 1), grade))
    return st.fixed_dictionaries({idx: coefficient for idx in legs}).map(
        lambda terms: PolyMVF(n, grade, {idx: Poly(n, c) for idx, c in terms.items() if c}))


@st.composite
def _ad_exp_cases(draw):
    """n = 2-3, D <= 4, X of degree 2-3 (order >= 1) and pi vanishing at the origin."""
    n = draw(st.integers(2, 3))
    X = draw(_fields(n, 1, {2, 3}).filter(lambda X: X.terms))
    return X, draw(_fields(n, 2, {1, 2, 3})), draw(st.integers(2, 4))


@settings(max_examples=15, deadline=None)
@given(_ad_exp_cases())
def test_ad_exp_is_the_lie_series_change_of_coordinates(case):
    X, pi, D = case
    _assert_carries(X, ad_exp(X, pi, D).value, pi, D)


def test_ad_exp_of_a_field_with_a_constant_part():
    # X's degree-3 part moves the constant of pi into degree 2, inside the 2-jet
    X = PolyMVF(2, 1, {(1,): Poly(2, {(3, 0): 1})})
    pi = PolyMVF(2, 2, {(1, 2): Poly(2, {(0, 0): 1, (1, 0): 1})})
    _assert_carries(X, ad_exp(X, pi, 2).value, pi, 2)


def _composition(outer: list, inner: list, D: int) -> list:
    """outer o inner, component by component, modulo degree > D."""
    return [_compose(p, inner, D) for p in outer]


def _assert_bch_composes(X, Y, D: int) -> None:
    """The Lie series of bch(X, Y) is psi_Y o psi_X modulo degree > D: ad_exp(X)
    pulls back along psi_X, and ad_exp(bch(X, Y)) = ad_exp(X) ad_exp(Y)."""
    xs = sympy.symbols(f"x1:{X.nvars + 1}")
    psi = [_jet(p, D) for p in _lie_series(bch(X, Y, D).value, xs, D)]
    assert psi == _composition(_lie_series(Y, xs, D), _lie_series(X, xs, D), D)


def test_bch_composition_order_is_calibrated():
    # [x2^2 d1, x1^2 d2] != 0 below degree 4, so the two orders of composition
    # differ there, and only psi_Y o psi_X is the series of bch(X, Y)
    X = PolyMVF(2, 1, {(1,): Poly(2, {(0, 2): 1})})
    Y = PolyMVF(2, 1, {(2,): Poly(2, {(2, 0): 1})})
    xs = sympy.symbols("x1:3")
    psi_x, psi_y = _lie_series(X, xs, 4), _lie_series(Y, xs, 4)
    assert _composition(psi_y, psi_x, 4) != _composition(psi_x, psi_y, 4)
    _assert_bch_composes(X, Y, 4)


@st.composite
def _bch_cases(draw):
    """n = 2-3, D = 3-4, X and Y of degree 2-3 (order >= 1)."""
    n = draw(st.integers(2, 3))
    X, Y = (draw(_fields(n, 1, {2, 3}).filter(lambda V: V.terms)) for _ in range(2))
    return X, Y, draw(st.integers(3, 4))


@settings(max_examples=15, deadline=None)
@given(_bch_cases())
def test_bch_is_the_composition_of_lie_series(case):
    _assert_bch_composes(*case)


def test_linearizing_gauge_carries_pi_to_its_linear_part():
    # (1 + C) pi_so3 with the Casimir C = x1^2 + x2^2 + x3^2 is Poisson and,
    # so(3) being semisimple, formally linearizable: the gauge field X has
    # ad_exp(X, pi_lin) = j^D pi, so exp(X) carries j^D pi to pi_lin
    D = 4
    # x3 d1^d2 - x2 d1^d3 + x1 d2^d3, each coefficient as (exponent, sign)
    so3 = {(1, 2): ((0, 0, 1), 1), (1, 3): ((0, 1, 0), -1), (2, 3): ((1, 0, 0), 1)}
    one_plus_c = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    pi_lin = PolyMVF(3, 2, {idx: Poly(3, {e: s}) for idx, (e, s) in so3.items()})
    pi = PolyMVF(3, 2, {idx: Poly(3, {tuple(a + b for a, b in zip(e, f)): s for f in one_plus_c})
                        for idx, (e, s) in so3.items()})
    sol = formal_linearize(pi, D)
    assert sol.status == "equivalent" and sol.X.value.terms
    _assert_carries(sol.X.value, pi, pi_lin, D)


def _load_workloads():
    """bench/workloads.py, loaded by path: the benchmark's seeded inputs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads


_WORKLOADS = _load_workloads()
_GAUGE_CORPUS = [entry for entry in _WORKLOADS._gauge_corpus() if set(entry[2].weights) == {1}]


def test_the_gauge_corpus_has_sixteen_all_ones_entries():
    assert len(_GAUGE_CORPUS) == 16


@pytest.mark.parametrize("name, deg, X0", _GAUGE_CORPUS, ids=[
    f"{name}-d{deg}-{k}" for k, (name, deg, _) in enumerate(_GAUGE_CORPUS)])
def test_gauge_corpus_gauges_carry_pi_to_its_linear_part(name, deg, X0):
    # each linearize case of the gauge benchmark, before its seeded reflection:
    # the gauge that formal_linearize returns is a change of coordinates
    D = _WORKLOADS.GAUGE_D
    pi_lin = linear_poisson(preset(name))
    pi = ad_exp(X0, pi_lin, D).value
    sol = formal_linearize(pi, D)
    assert sol.status == "equivalent" and sol.X.value.terms
    _assert_carries(sol.X.value, pi, pi_lin, D)
