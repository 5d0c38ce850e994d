"""Formal gauges as changes of coordinates: an oracle that shares no bracket.

For a vector field X of order >= 1, ``ad_exp(X, pi, D)`` is the D-jet of the
bivector pi' that the time-one flow psi = exp(X) carries to pi.  Here psi is
the Lie series psi_i = sum_k X^k(x_i)/k!, X acting on sympy polynomials as a
derivation, and the check is the change of coordinates itself,

    Dpsi . pi' . Dpsi^T  ==  pi o psi,

entry by entry, in the jet filtration.  The grade of a coefficient is its
fiber degree: its degree in the weight-1 variables, which is its degree when
the weights are all ones.  A bivector's grade adds its base legs (weight-0
variables), so entry (a, b) is known modulo fiber degree > D - #{a, b base},
and component i of a vector field modulo fiber degree > D - [x_i base].
X raises the fiber degree by at least 1, so psi converges in it, and every
factor has fiber degree >= 0.  Only sums, products and derivatives in
sympy's sparse polynomial ring are used, with the monomials of fiber degree
above D dropped after each product (above D + 1 in psi, whose derivatives
Dpsi are read to D); the package builds the inputs and its results are read
only through ``.terms``.
"""

import functools
import importlib.util
import itertools
import operator
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from poissonforge import (FilteredJet, Poly, PolyMVF, ad_exp, bch, formal_linearize,
                          linear_poisson, mc_equivalence, preset, schouten)


@functools.cache
def _ring(n: int):
    """sympy's sparse polynomial ring over QQ in x1..xn."""
    return ring(f"x1:{n + 1}", QQ)[0]


def _sym(poly, R):
    """A package polynomial as an element of the sympy ring ``R``."""
    return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in poly.terms.items()})


def _jet(p, D: int, weights):
    """``p`` without its monomials of fiber degree > D."""
    return p.ring.from_dict({e: c for e, c in p.terms()
                             if sum(a * w for a, w in zip(e, weights)) <= D})


def _lie_series(X, R, bound: int) -> list:
    """psi_i = sum_k X^k(x_i)/k! up to fiber degree ``bound``."""
    coefficients = [R.zero] * R.ngens
    for (i,), p in X.terms.items():
        coefficients[i - 1] = _sym(p, R)
    psi = []
    for x in R.gens:
        term = acc = x
        k = 0
        while term:
            k += 1
            applied = sum((_jet(a * term.diff(y), bound, X.weights)
                           for a, y in zip(coefficients, R.gens)), R.zero)
            term = applied * QQ(1, k)
            acc = acc + term
        psi.append(acc)
    return psi


def _matrix(pi, R) -> list:
    """The skew matrix of ``pi``: entry (i, j) is pi(dx_i, dx_j)."""
    P = [[R.zero] * R.ngens for _ in R.gens]
    for (i, j), p in pi.terms.items():
        P[i - 1][j - 1] = _sym(p, R)
        P[j - 1][i - 1] = -P[i - 1][j - 1]
    return P


def _compose(p, psi: list, D: int, weights):
    """p(psi_1, ..., psi_n) modulo fiber degree > D."""
    one = p.ring.one
    powers = [[one] for _ in psi]  # powers[i][e] = psi_i^e modulo fiber degree > D
    out = p.ring.zero
    for exps, c in p.terms():
        monomial = one * c
        for psi_i, power, e in zip(psi, powers, exps):
            while len(power) <= e:
                power.append(_jet(power[-1] * psi_i, D, weights))
            if e:
                monomial = _jet(monomial * power[e], D, weights)
        out = out + monomial
    return out


def _assert_carries(X, pi_new, pi, D: int):
    """exp(X) carries pi_new to pi in the D-jet, entry by entry."""
    n, w, R = pi.nvars, pi.weights, _ring(pi.nvars)
    psi = _lie_series(X, R, D + 1)  # the fiber degree Dpsi needs
    P, Q = _matrix(pi_new, R), _matrix(pi, R)
    J = [[psi_a.diff(x) for x in R.gens] for psi_a in psi]
    # PJ[i][b] = (pi' . Dpsi^T)_(i, b)
    PJ = [[sum((_jet(P[i][j] * J[b][j], D, w) for j in range(n)), R.zero) for b in range(n)]
          for i in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        pushed = sum((_jet(J[a][i] * PJ[i][b], D, w) for i in range(n)), R.zero)
        known = D - (1 - w[a]) - (1 - w[b])
        assert _jet(pushed, known, w) == _jet(_compose(Q[a][b], psi, D, w), known, w), \
            (a + 1, b + 1)


def _fields(n: int, grade: int, grades: set, weights=None):
    """Fields whose coefficients have up to 3 monomials of degree <= 3, each
    monomial of a grade in ``grades``."""
    weights = (1,) * n if weights is None else weights

    def coefficient(idx):
        base_legs = sum(1 for i in idx if not weights[i - 1])
        monomials = [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3
                     and sum(map(operator.mul, e, weights)) + base_legs in grades]
        if not monomials:
            return st.just({})
        return st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).filter(bool),
                               max_size=3)

    legs = list(itertools.combinations(range(1, n + 1), grade))
    return st.fixed_dictionaries({idx: coefficient(idx) for idx in legs}).map(
        lambda terms: PolyMVF(n, grade, {idx: Poly(n, c) for idx, c in terms.items() if c},
                              weights))


@st.composite
def _ad_exp_cases(draw, weights=None):
    """D = 2-4, X of grades 2-3 (order >= 1) and pi of grades 1-3 (vanishing at the
    origin): n = 2-3 with all-ones weights, else n = len(weights)."""
    n = draw(st.integers(2, 3)) if weights is None else len(weights)
    X = draw(_fields(n, 1, {2, 3}, weights).filter(lambda X: X.terms))
    return X, draw(_fields(n, 2, {1, 2, 3}, weights)), draw(st.integers(2, 4))


@settings(max_examples=15, deadline=None)
@given(_ad_exp_cases())
def test_ad_exp_is_the_lie_series_change_of_coordinates(case):
    X, pi, D = case
    _assert_carries(X, ad_exp(X, pi, D).value, pi, D)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_ad_exp_cases((0, 0, 1)))
def test_ad_exp_is_the_change_of_coordinates_under_base_variables(case):
    # x1 and x2 are base variables: a coefficient's grade is its x3-degree, and
    # the kernel's grade bound falls on a different monomial than a degree bound
    X, pi, D = case
    _assert_carries(X, ad_exp(X, pi, D).value, pi, D)


def test_ad_exp_of_a_field_with_a_constant_part():
    # X's degree-3 part moves the constant of pi into degree 2, inside the 2-jet
    X = PolyMVF(2, 1, {(1,): Poly(2, {(3, 0): 1})})
    pi = PolyMVF(2, 2, {(1, 2): Poly(2, {(0, 0): 1, (1, 0): 1})})
    _assert_carries(X, ad_exp(X, pi, 2).value, pi, 2)


def _composition(outer: list, inner: list, D: int, weights) -> list:
    """outer o inner, component by component, modulo fiber degree > D."""
    return [_compose(p, inner, D, weights) for p in outer]


def _assert_bch_composes(X, Y, D: int) -> None:
    """The Lie series of bch(X, Y) is psi_Y o psi_X in the D-jet: ad_exp(X) pulls
    back along psi_X, and ad_exp(bch(X, Y)) = ad_exp(X) ad_exp(Y).  Component i is
    known modulo fiber degree > D - [x_i base]."""
    R, w = _ring(X.nvars), X.weights
    composed = _composition(_lie_series(Y, R, D), _lie_series(X, R, D), D, w)
    for i, (got, want) in enumerate(zip(_lie_series(bch(X, Y, D).value, R, D), composed)):
        known = D - (1 - w[i])
        assert _jet(got, known, w) == _jet(want, known, w), i + 1


def test_bch_composition_order_is_calibrated():
    # [x2^2 d1, x1^2 d2] != 0 below degree 4, so the two orders of composition
    # differ there, and only psi_Y o psi_X is the series of bch(X, Y)
    X = PolyMVF(2, 1, {(1,): Poly(2, {(0, 2): 1})})
    Y = PolyMVF(2, 1, {(2,): Poly(2, {(2, 0): 1})})
    psi_x, psi_y = _lie_series(X, _ring(2), 4), _lie_series(Y, _ring(2), 4)
    assert _composition(psi_y, psi_x, 4, (1, 1)) != _composition(psi_x, psi_y, 4, (1, 1))
    _assert_bch_composes(X, Y, 4)


@st.composite
def _bch_cases(draw, weights=None, grades=({2, 3}, {2, 3})):
    """D = 3-4, X and Y of grades 2-3 (order >= 1), or of ``grades``: n = 2-3 with
    all-ones weights, else n = len(weights)."""
    n = draw(st.integers(2, 3)) if weights is None else len(weights)
    X, Y = (draw(_fields(n, 1, g, weights).filter(lambda V: V.terms)) for g in grades)
    return X, Y, draw(st.integers(3, 4))


@settings(max_examples=15, deadline=None)
@given(_bch_cases())
def test_bch_is_the_composition_of_lie_series(case):
    _assert_bch_composes(*case)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_bch_cases((0, 0, 1)))
def test_bch_is_the_composition_of_lie_series_under_base_variables(case):
    _assert_bch_composes(*case)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_bch_cases((0, 0, 1), ({2}, {3})).filter(
    lambda case: not schouten(case[0], case[1], max_grade=case[2]).is_zero()))
def test_bch_composes_when_y_has_the_larger_order_under_base_variables(case):
    # Y of order 2 against X of order 1, with a bracket that survives: the series
    # starts at X and takes its first Bernoulli coefficient with the sign of Y's side
    _assert_bch_composes(*case)


def _vector_field(n: int, components: dict, weights=None):
    """The vector field sum_i p_i d_i on R^n from ``{i: {exps: c}}``."""
    return PolyMVF(n, 1, {(i,): Poly(n, p) for i, p in components.items()}, weights)


# pairs of orders 2 and 1: the series of bch takes (D - 1)//2 steps, 2 at D = 6 and
# 3 at D = 8, each with ad_Z up to the power D - 3, which at D = 8 reaches the next
# nonzero Bernoulli coefficient past c_2, c_4 = -1/720
_DEEP_BCH_PAIRS = {
    "plane": (_vector_field(2, {1: {(0, 3): 1}, 2: {(3, 0): 1, (2, 2): 1}}),
              _vector_field(2, {1: {(1, 1): 1}, 2: {(2, 0): 1, (0, 3): 1}})),
    "base-variables": (
        _vector_field(3, {1: {(0, 1, 2): 1}, 3: {(2, 0, 3): 1}}, (0, 0, 1)),
        _vector_field(3, {2: {(1, 0, 1): 1}, 3: {(0, 0, 2): 1, (0, 1, 3): 1}}, (0, 0, 1))),
}


@pytest.mark.parametrize("D", [6, 8])
@pytest.mark.parametrize("name", sorted(_DEEP_BCH_PAIRS))
def test_bch_composes_over_several_series_steps(name, D):
    X, Y = _DEEP_BCH_PAIRS[name]
    _assert_bch_composes(X, Y, D)
    _assert_bch_composes(Y, X, D)


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


@st.composite
def _mc_cases_under_base_variables(draw):
    """X of grades 2-3 and gamma' = (g1 d1 + g2 d2) ^ d3 under weights (0, 0, 1),
    g1 and g2 of degree <= 2 in the base variables x1 and x2: gamma' is pure
    grade 1, and Poisson for any g1 and g2."""
    weights = (0, 0, 1)
    monomials = [(a, b, 0) for a in range(3) for b in range(3 - a)]
    g = st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=3)
    gamma_p = PolyMVF(3, 2, {(1, 3): Poly(3, draw(g)), (2, 3): Poly(3, draw(g))}, weights)
    return draw(_fields(3, 1, {2, 3}, weights).filter(lambda X: X.terms)), gamma_p


@settings(max_examples=9, derandomize=True, database=None, deadline=None)
@given(_mc_cases_under_base_variables())
def test_mc_equivalence_gauge_is_the_change_of_coordinates_under_base_variables(case):
    # the gauge that mc_equivalence returns for gamma = Ad(e^X) gamma', not X
    # itself: exp of it carries gamma to gamma' in fiber degree
    X, gamma_p = case
    D = 4
    gamma = ad_exp(X, gamma_p, D)
    sol = mc_equivalence(gamma, FilteredJet(gamma_p, D), D)
    assert sol.status == "equivalent"
    _assert_carries(sol.X.value, gamma.value, gamma_p, D)


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
