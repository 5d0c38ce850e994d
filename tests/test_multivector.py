"""Multivector algebra: wedge, Schouten bracket, grading, serialization.

The Schouten kernel and ``poisson._bracket_rows``, its packed row keys
decoded, are checked against ``_reference_schouten``, the bracket evaluated
through ``Poly`` arithmetic.
"""

import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import (GradedPiece, PolyMVF, dilate, grade_component, hamiltonian_vf,
                          linear_poisson, preset, schouten, sharp, truncate_jet, wedge)
from poissonforge import multivector
from poissonforge.multivector import _grade, _legs, _mask, _merge_sign
from poissonforge.poisson import MAX_BASIS, _bracket_rows, basis_size, graded_basis
from poissonforge.polyalg import Poly, _add_term, parse_poly

from conftest import decoded_rows, rand_mvf, rand_poly, sgn


def test_index_validation():
    p = Poly.constant(3, 1)
    with pytest.raises(ValueError):
        PolyMVF(3, 2, {(2, 1): p})
    with pytest.raises(ValueError):
        PolyMVF(3, 2, {(1, 1): p})
    with pytest.raises(ValueError):
        PolyMVF(3, 2, {(1, 4): p})


def test_zero_equality_across_grades():
    assert PolyMVF.zero(3, 1) == PolyMVF.zero(3, 2)
    assert hash(PolyMVF.zero(3, 1)) == hash(PolyMVF.zero(3, 3))


def test_wedge_graded_commutativity():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        u, v = rand_mvf(rng, n, p), rand_mvf(rng, n, q)
        assert wedge(u, v) == wedge(v, u) * sgn(p * q)


def test_wedge_associativity():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 4)
        u = rand_mvf(rng, n, rng.randint(0, 2))
        v = rand_mvf(rng, n, rng.randint(0, 2))
        w = rand_mvf(rng, n, rng.randint(0, 2))
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


def test_schouten_vector_fields_is_lie_bracket():
    # [x d1, d1] = -d1 in the L_X L_Y - L_Y L_X convention
    n = 2
    X = PolyMVF(n, 1, {(1,): parse_poly("x1", n)})
    Y = PolyMVF(n, 1, {(1,): Poly.constant(n, 1)})
    assert schouten(X, Y) == PolyMVF(n, 1, {(1,): Poly.constant(n, -1)})
    f = parse_poly("x1^2*x2", n)
    # bracket acting on functions = commutator of derivations
    lhs = schouten(X, Y).apply_to_functions([f])
    rhs = (X.apply_to_functions([Y.apply_to_functions([f])])
           - Y.apply_to_functions([X.apply_to_functions([f])]))
    assert lhs == rhs


def test_schouten_function_slot_convention():
    # [W, f] = (-1)^(p-1) i_df W and [f, W] = -i_df W
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 3)
        p = rng.randint(1, n)
        W = rand_mvf(rng, n, p)
        f = PolyMVF.from_function(rand_poly(rng, n))
        assert schouten(W, f) == schouten(f, W) * (-sgn(p - 1))


def test_schouten_known_so3_bracket():
    # [pi, x3 d3] for pi = x3 d1^d2 + x2 d3^d1 + x1 d2^d3
    n = 3
    pi = PolyMVF(n, 2, {(1, 2): parse_poly("x3", n),
                        (1, 3): parse_poly("-x2", n),
                        (2, 3): parse_poly("x1", n)})
    X = PolyMVF(n, 1, {(3,): parse_poly("x3", n)})
    br = schouten(X, pi)
    # (L_X pi)^{ij} = X^k d_k pi^{ij} - pi^{kj} d_k X^i - pi^{ik} d_k X^j
    expected = PolyMVF(n, 2, {(1, 2): parse_poly("x3", n),
                              (1, 3): parse_poly("x2", n),
                              (2, 3): parse_poly("-x1", n)})
    assert br == expected


def test_graded_pieces_and_truncation():
    n = 2
    u = PolyMVF(n, 1, {(1,): parse_poly("x1 + x1^2 + x2^3", n)})
    pieces = u.graded_pieces()
    assert sorted(pieces) == [1, 2, 3]
    assert truncate_jet(u, 2) == pieces[1] + pieces[2]
    assert grade_component(u, 3).value == pieces[3]
    assert u.min_grade() == 1


def test_weighted_grading():
    # weight-0 legs count toward the grade; weight-0 variables do not
    n = 3
    u = PolyMVF(n, 2, {(1, 2): parse_poly("x3", n)}, weights=(0, 0, 1))
    # legs 1,2 have weight 0 (two units) plus fiber degree 1 from x3
    assert u.min_grade() == 3
    v = PolyMVF(n, 1, {(3,): parse_poly("x1^5", n)}, weights=(0, 0, 1))
    assert v.min_grade() == 0


def _reference_grade(weights, legs, exps):
    """A monomial's dilation grade from the definition, one variable at a time:
    each unit of degree in a fiber variable and each base leg adds one."""
    grade = 0
    for i in range(len(weights)):
        if weights[i] == 1:
            grade += exps[i]
        elif i + 1 in legs:
            grade += 1
    return grade


def _reference_pieces(W):
    """W's homogeneous pieces, by grade, built through the checking constructor."""
    monos = {}
    for legs, poly in W.terms.items():
        for exps, c in poly.terms.items():
            g = _reference_grade(W.weights, legs, exps)
            monos.setdefault(g, {}).setdefault(legs, {})[exps] = c
    return {g: PolyMVF(W.nvars, W.grade, {legs: Poly(W.nvars, t) for legs, t in by_legs.items()},
                       W.weights)
            for g, by_legs in monos.items()}


def _grading_fields(rng):
    """Fields with n <= 4 over every weight vector in {0,1}^n (a sample for n = 4),
    including zero fields and functions."""
    for n in range(1, 5):
        all_weights = list(itertools.product((0, 1), repeat=n))
        for weights in all_weights if n < 4 else rng.sample(all_weights, 5):
            for p in range(n + 1):
                yield PolyMVF.zero(n, p, weights)
                for _ in range(2):
                    yield rand_mvf(rng, n, p, max_deg=3, nterms=3).with_weights(weights)


def test_grading_matches_reference():
    rng = random.Random(19)
    for W in _grading_fields(rng):
        pieces = _reference_pieces(W)
        zero = PolyMVF.zero(W.nvars, W.grade, W.weights)
        assert W.graded_pieces() == pieces and list(W.graded_pieces()) == sorted(pieces)
        assert sum(pieces.values(), zero) == W
        assert W.min_grade() == min(pieces, default=None)
        top = max(pieces, default=0)
        for k in range(top + 2):
            assert truncate_jet(W, k) == sum((P for g, P in pieces.items() if g <= k), zero)
        for l in range(top + 2):
            piece = grade_component(W, l)
            assert piece.l == l and piece.value == pieces.get(l, zero)
            assert (piece.value.grade, piece.value.weights) == (W.grade, W.weights)
        for t in (2, -1, Fraction(2, 3)):
            assert dilate(W, t) == sum((P * Fraction(t) ** (g - 1) for g, P in pieces.items()),
                                       zero)
        if len(pieces) > 1:
            for l in range(top + 2):
                with pytest.raises(ValueError, match="homogeneous"):
                    GradedPiece(l, W)
        for l, P in pieces.items():
            assert GradedPiece(l, P).value == P
            if l:
                with pytest.raises(ValueError, match="homogeneous"):
                    GradedPiece(l - 1, P)


def test_graded_basis_has_the_grade_it_is_asked_for():
    for n in range(1, 5):
        for weights in itertools.product((0, 1), repeat=n):
            for k in range(n + 1):
                for l in range(4):
                    for cap in (0, 2):
                        basis = graded_basis(n, k, l, weights, cap)
                        assert all(_reference_grade(weights, legs, exps) == l
                                   for legs, exps in basis)


def test_dilate_is_bracket_automorphism():
    rng = random.Random(14)
    t = Fraction(3, 2)
    for _ in range(40):
        n = rng.randint(2, 3)
        u = rand_mvf(rng, n, rng.randint(0, n))
        v = rand_mvf(rng, n, rng.randint(0, n))
        assert dilate(schouten(u, v), t) == schouten(dilate(u, t),
                                                    dilate(v, t))


def test_dilation_parameter_is_exact():
    # a float would be read as its binary fraction: 0.1 -> 3602879701896397/2^55
    u = PolyMVF(2, 1, {(1,): parse_poly("x1 + x1^2 + x2^3", 2)})
    assert dilate(u, "1/10") == dilate(u, Fraction(1, 10))
    assert dilate(u, 3) == dilate(u, Fraction(3))
    assert dilate(u, "1/10").terms[(1,)] == parse_poly("x1 + 1/10*x1^2 + 1/100*x2^3", 2)
    for t in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            dilate(u, t)


def test_newton_grade_formula():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 3)
        u = rand_mvf(rng, n, rng.randint(1, n))
        v = rand_mvf(rng, n, rng.randint(1, n))
        br = schouten(u, v)
        for l in range(0, 5):
            lhs = grade_component(br, l).value
            rhs = PolyMVF.zero(n, br.grade)
            for p in range(0, l + 2):
                q = l + 1 - p
                rhs = rhs + schouten(grade_component(u, p).value,
                                     grade_component(v, q).value)
            assert lhs == rhs


def test_json_round_trip():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(2, 4)
        u = rand_mvf(rng, n, rng.randint(0, n))
        assert PolyMVF.from_json_obj(json.loads(json.dumps(u.to_json_obj(), sort_keys=True))) == u
    # schema spot check
    u = PolyMVF(3, 2, {(1, 2): parse_poly("x3", 3)})
    obj = json.loads(json.dumps(u.to_json_obj(), sort_keys=True))
    assert obj["nvars"] == 3 and obj["grade"] == 2
    assert obj["weights"] == [1, 1, 1]
    assert obj["terms"] == [{"indices": [1, 2], "poly": "x3"}]


def test_bivector_matrix():
    pi = PolyMVF(3, 2, {(1, 2): parse_poly("x3", 3),
                        (1, 3): parse_poly("-x2", 3),
                        (2, 3): parse_poly("x1", 3)})
    pts = np.array([[1.0, 2.0, 3.0]])
    P = pi.bivector_matrix(pts)[0]
    expected = np.array([[0.0, 3.0, -2.0], [-3.0, 0.0, 1.0],
                         [2.0, -1.0, 0.0]])
    np.testing.assert_allclose(P, expected)


def test_multiderivation_application():
    pi = PolyMVF(2, 2, {(1, 2): Poly.constant(2, 1)})
    f = parse_poly("x1^2", 2)
    g = parse_poly("x2", 2)
    assert pi.apply_to_functions([f, g]) == parse_poly("2*x1", 2)
    assert pi.apply_to_functions([g, f]) == parse_poly("-2*x1", 2)


@pytest.mark.parametrize("weights", [(1, 1, 1), (0, 0, 1), (0, 1, 1)])
def test_schouten_max_grade_is_truncation(weights):
    # brackets only the graded-piece pairs below the bound, so it must
    # agree exactly with truncating the full bracket
    rng = random.Random(17)
    for _ in range(70):
        n = 3
        u = rand_mvf(rng, n, rng.randint(0, 3), max_deg=3).with_weights(weights)
        v = rand_mvf(rng, n, rng.randint(0, 3), max_deg=3).with_weights(weights)
        full = schouten(u, v)
        for k in range(6):
            assert schouten(u, v, max_grade=k) == truncate_jet(full, k)
    with pytest.raises(ValueError):
        schouten(u, v, max_grade=-1)


def test_groups_above_the_bound_are_dropped_before_multiplying(monkeypatch):
    # every monomial has grade 3, so every pair brackets to grade 5: below
    # that bound ``_products`` drops each packed group where it is entered,
    # and no leg set of either side reaches the kernel's sign rule
    n = 3
    W = PolyMVF(n, 2, {(1, 2): parse_poly("x1^3 + x2*x3^2", n), (2, 3): parse_poly("x3^3", n)})
    V = PolyMVF(n, 2, {(1, 3): parse_poly("x1*x2*x3", n)})
    assert not schouten(W, V).is_zero() and min(schouten(W, V)._grades()) == 5
    monkeypatch.setattr(multivector, "_merge_sign", mock.Mock(wraps=_merge_sign))
    for k in (3, 4):
        bounded = schouten(W, V, max_grade=k)
        assert bounded.is_zero() and bounded == PolyMVF.zero(n, 3)
    assert multivector._merge_sign.call_count == 0
    assert schouten(W, V, max_grade=5) == schouten(W, V)
    assert multivector._merge_sign.call_count > 0


# ---------------------------------------------------------------------------
# The trusted path: fields the kernel builds are wrapped without re-checking
# ---------------------------------------------------------------------------

def _assert_canonical_poly(p, nvars):
    assert isinstance(p, Poly) and p.nvars == nvars
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0
    assert Poly(nvars, p.terms).terms == p.terms


def _assert_canonical(r):
    """What ``PolyMVF._raw`` trusts, checked against the field's re-validation."""
    assert isinstance(r, PolyMVF) and type(r.weights) is tuple
    v = PolyMVF(r.nvars, r.grade, r.terms, r.weights)
    assert (v.nvars, v.grade, v.weights, v.terms) == (r.nvars, r.grade, r.weights, r.terms)
    for legs, p in r.terms.items():
        assert type(legs) is tuple and len(legs) == r.grade
        assert all(1 <= i <= r.nvars for i in legs)
        assert all(a < b for a, b in zip(legs, legs[1:]))
        assert p, f"zero coefficient stored at {legs}"
        _assert_canonical_poly(p, r.nvars)


@pytest.mark.parametrize("weights", [(1, 1, 1), (0, 0, 1)])
def test_trusted_results_equal_their_revalidation(weights):
    rng = random.Random(18)
    n = 3
    for _ in range(30):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        W, U = (rand_mvf(rng, n, p, nterms=3).with_weights(weights) for _ in range(2))
        V = rand_mvf(rng, n, q, nterms=3).with_weights(weights)
        results = [W + U, W - U, (W + U) - U, W - W, -W, W * Fraction(-2, 3), W * 0,
                   wedge(W, V), wedge(V, W), schouten(W, V), schouten(V, W),
                   dilate(W, Fraction(2, 3)), dilate(W, -1)]
        results += [schouten(W, V, max_grade=k) for k in range(5)]
        results += [truncate_jet(W, k) for k in range(4)]
        results += list(W.graded_pieces().values())
        if p == 2:
            results += [sharp(W, i) for i in range(1, n + 1)]
            results.append(sharp(W, [rand_poly(rng, n) for _ in range(n)]))
        for r in results:
            assert r.weights == weights
            _assert_canonical(r)
        assert (W * 0).is_zero()
        for a in W.terms.values():
            for b in V.terms.values():
                _assert_canonical_poly(a * b, n)
            for i in range(1, n + 1):
                _assert_canonical_poly(a.diff(i), n)


@pytest.mark.parametrize("build", [
    lambda: PolyMVF(3, 1, {(1,): Poly.constant(2, 1)}),
    lambda: PolyMVF(3, -1),
    lambda: PolyMVF(3, 1, {}, weights=(0, 2, 1)),
    lambda: PolyMVF(3, 1, {}, weights=(-1, 1, 1)),
    lambda: PolyMVF(3, 1, {}, weights=(0, 1)),
    lambda: PolyMVF.from_json_obj({"nvars": 2, "grade": -1, "terms": []}),
    lambda: PolyMVF.from_json_obj({"nvars": 2, "grade": 1, "weights": [1, 2],
                                   "terms": [{"indices": [1], "poly": "x1"}]}),
    # refused, not rounded or read as 1
    lambda: PolyMVF(3, 1, {}, weights=[1, 0.5, 1]),
    lambda: PolyMVF(3, 1, {}, weights=[True, False, True]),
    lambda: PolyMVF(3, 1.7, {}),
    lambda: PolyMVF(3, True, {}),
    lambda: PolyMVF(3.0, 1, {}),
    lambda: PolyMVF(3, 1, {(1.0,): Poly.variable(3, 1)}),
    lambda: PolyMVF(3, 1, {(True,): Poly.variable(3, 1)}),
], ids=["nvars", "grade", "weight-2", "weight-neg", "weight-len", "json-grade",
        "json-weights", "weight-0.5", "weight-bools", "grade-1.7", "grade-bool",
        "nvars-float", "leg-float", "leg-bool"])
def test_public_constructors_reject(build):
    with pytest.raises(ValueError):
        build()


def test_index_like_integers_are_taken():
    W = PolyMVF(np.int64(2), np.int64(1), {(np.int64(1),): Poly.variable(2, 1)},
                weights=[np.int64(0), 1])
    assert W == PolyMVF(2, 1, {(1,): Poly.variable(2, 1)}, weights=(0, 1))
    assert (W.nvars, W.grade, W.weights) == (2, 1, (0, 1))
    assert all(type(x) is int for x in (W.nvars, W.grade, *W.weights, *next(iter(W.terms))))


# ---------------------------------------------------------------------------
# sympy oracle: the bracket in odd-variable (superfunction) form
# ---------------------------------------------------------------------------
#
# A q-vector a d_{i1}^...^d_{iq} is the superfunction a th_{i1}...th_{iq} in
# odd coordinates th_i, stored as {sorted odd indices: sympy expression}.
# The bracket is
#     [P, Q] = sum_i (P d<_{th_i}) (d_{x_i} Q) - (d_{x_i} P) (d>_{th_i} Q),
# with d< / d> the right / left odd derivatives and products in the
# Grassmann algebra.  Its signs are calibrated by
# test_sympy_oracle_conventions on the two conventions the module documents.

sympy = pytest.importorskip("sympy")


def _odd_mul(P, Q):
    out = {}
    for I, a in P.items():
        for J, b in Q.items():
            if set(I) & set(J):
                continue
            legs = list(I + J)
            sign = 1
            for i in range(len(legs)):          # bubble sort, counting swaps
                for j in range(len(legs) - 1 - i):
                    if legs[j] > legs[j + 1]:
                        legs[j], legs[j + 1] = legs[j + 1], legs[j]
                        sign = -sign
            key = tuple(legs)
            out[key] = out.get(key, 0) + sign * a * b
    return out


def _odd_diff(P, i, right):
    out = {}
    for I, a in P.items():
        if i in I:
            k = I.index(i)
            sign = sgn(len(I) - 1 - k) if right else sgn(k)
            out[I[:k] + I[k + 1:]] = sign * a
    return out


def _odd_schouten(P, Q, xs):
    out = {}
    for i, x in enumerate(xs, start=1):
        dxP = {I: sympy.diff(a, x) for I, a in P.items()}
        dxQ = {I: sympy.diff(a, x) for I, a in Q.items()}
        for sign, prod in ((1, _odd_mul(_odd_diff(P, i, True), dxQ)),
                           (-1, _odd_mul(dxP, _odd_diff(Q, i, False)))):
            for I, a in prod.items():
                out[I] = out.get(I, 0) + sign * a
    return out


def _to_odd(u, xs):
    return {I: sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                   for exps, c in poly.terms.items())
            for I, poly in u.terms.items()}


def _odd_truncate(P, xs, weights, k):
    """Keep the monomials of dilation grade <= k: fiber degree + base legs."""
    out = {}
    for I, a in P.items():
        base_legs = sum(1 for i in I if weights[i - 1] == 0)
        expr = sympy.expand(a)
        if expr == 0:
            continue
        for exps, c in sympy.Poly(expr, *xs).terms():
            fiber = sum(e for e, w in zip(exps, weights) if w == 1)
            if fiber + base_legs <= k:
                out[I] = out.get(I, 0) + c * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
    return out


def _odd_equal(P, Q):
    return all(sympy.expand(P.get(I, 0) - Q.get(I, 0)) == 0 for I in set(P) | set(Q))


def _odd_apply(P, g, xs):
    """A vector field in odd form acting on a function g."""
    return sympy.expand(sum(a * sympy.diff(g, xs[i - 1]) for (i,), a in P.items()))


def test_sympy_oracle_conventions():
    # calibration: Lie bracket on vector fields and [W, f] = (-1)^(p-1) i_df W
    rng = random.Random(18)
    n = 3
    xs = sympy.symbols(f"x1:{n + 1}")
    for _ in range(20):
        X, Y = _to_odd(rand_mvf(rng, n, 1), xs), _to_odd(rand_mvf(rng, n, 1), xs)
        g = _to_odd(PolyMVF.from_function(rand_poly(rng, n)), xs).get((), sympy.S(0))
        commutator = (_odd_apply(X, _odd_apply(Y, g, xs), xs)
                      - _odd_apply(Y, _odd_apply(X, g, xs), xs))
        assert _odd_apply(_odd_schouten(X, Y, xs), g, xs) == commutator
        p = rng.randint(1, n)
        W = _to_odd(rand_mvf(rng, n, p), xs)
        # i_df W = sum_k (-1)^k (d_{i_k} f) a d_{i_1}^..^d_{i_k}-hat^..^d_{i_p}
        contraction = {}
        for I, a in W.items():
            for k, leg in enumerate(I):
                J = I[:k] + I[k + 1:]
                contraction[J] = contraction.get(J, 0) + sgn(k) * sympy.diff(g, xs[leg - 1]) * a
        assert _odd_equal(_odd_schouten(W, {(): g}, xs),
                          {I: sgn(p - 1) * a for I, a in contraction.items()})


@pytest.mark.parametrize("weights", [(1, 1, 1), (0, 0, 1), (0, 1, 0, 1)])
def test_schouten_against_sympy_oracle(weights):
    rng = random.Random(19)
    n = len(weights)
    xs = sympy.symbols(f"x1:{n + 1}")
    for _ in range(15):
        u = rand_mvf(rng, n, rng.randint(0, n)).with_weights(weights)
        v = rand_mvf(rng, n, rng.randint(0, n)).with_weights(weights)
        oracle = _odd_schouten(_to_odd(u, xs), _to_odd(v, xs), xs)
        assert _odd_equal(_to_odd(schouten(u, v), xs), oracle)
        for k in range(5):
            assert _odd_equal(_to_odd(schouten(u, v, max_grade=k), xs),
                              _odd_truncate(oracle, xs, weights, k))


def test_multiderivation_against_determinant_oracle():
    # W(df_1, ..., df_q) = sum_I a_I det[d_{I_c} f_r], independent of the bracket
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 4)
        xs = sympy.symbols(f"x1:{n + 1}")
        W = rand_mvf(rng, n, rng.randint(0, n))
        funcs = [rand_poly(rng, n) for _ in range(W.grade)]
        fs = [_to_odd(PolyMVF.from_function(f), xs).get((), sympy.S(0)) for f in funcs]
        expected = sum((a * sympy.Matrix(W.grade, W.grade,
                                         lambda r, c: sympy.diff(fs[r], xs[I[c] - 1])).det()
                        for I, a in _to_odd(W, xs).items()), sympy.S(0))
        got = _to_odd(PolyMVF.from_function(W.apply_to_functions(funcs)), xs).get((), 0)
        assert sympy.expand(got - expected) == 0


# ---------------------------------------------------------------------------
# Reference oracle: the bracket as it stood before the integer kernel
# ---------------------------------------------------------------------------
#
# The same odd-variable formula evaluated through ``Poly`` arithmetic: each
# coefficient is differentiated, products are ``Fraction`` polynomials and
# every term is accumulated on its legs, sorted by an insertion sort that
# counts its swaps.  It shares no code with the kernel, which signs leg sets
# by the bit counts of their masks.

def _sort_indices(indices):
    """Sort a leg tuple, returning (sorted tuple, permutation sign) or None on repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort; leg counts are tiny
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def _accumulate(terms: dict, a: Poly, b: Poly, legs, extra_sign: int):
    """Add ``a * b`` on the sorted ``legs``, signed by the sort and ``extra_sign``.

    Repeated legs wedge to zero; their product is never formed.
    """
    key, sign = _sort_indices(legs)
    if sign:
        _add_term(terms, key, a * b * (sign * extra_sign))


def _reference_schouten(W: PolyMVF, V: PolyMVF) -> PolyMVF:
    """The full bracket of ``schouten``, without the argument check."""
    p = W.grade
    w_legs = {i for I in W.terms for i in I}
    v_legs = {j for J in V.terms for j in J}
    # each coefficient is differentiated once per variable the other side uses
    dW = {I: {j: d for j in v_legs if (d := a.diff(j))} for I, a in W.terms.items()}
    dV = {J: {i: d for i in w_legs if (d := b.diff(i))} for J, b in V.terms.items()}
    terms: dict[tuple, Poly] = {}
    for I, a in W.terms.items():
        da = dW[I]
        for J, b in V.terms.items():
            db = dV[J]
            # right xi_i-derivative of a xi_I times d_i b xi_J
            for k, i in enumerate(I):
                if i in db:
                    _accumulate(terms, a, db[i], I[:k] + I[k + 1:] + J, (-1) ** (p - 1 - k))
            # minus d_j a xi_I times the left xi_j-derivative of b xi_J
            for k, j in enumerate(J):
                if j in da:
                    _accumulate(terms, da[j], b, I + J[:k] + J[k + 1:], -(-1) ** k)
    return PolyMVF(W.nvars, max(p + V.grade - 1, 0), terms, W.weights)


def _reference_wedge(W: PolyMVF, V: PolyMVF) -> PolyMVF:
    """The exterior product of ``wedge``, through ``_sort_indices``."""
    terms: dict[tuple, Poly] = {}
    for I, a in W.terms.items():
        for J, b in V.terms.items():
            _accumulate(terms, a, b, I + J, 1)
    return PolyMVF(W.nvars, W.grade + V.grade, terms, W.weights)


@st.composite
def field_pairs(draw, nvars=st.integers(1, 4), max_grade=3, sparse=False):
    """(W, V): fields on R^n over one drawn weight vector in {0,1}^n.

    Grades run over 0..``max_grade`` on either side, coefficients have up to
    four terms and rationals with denominators up to 6.  An exponent vector
    has entries up to 3, in every variable or, when ``sparse``, in at most
    three of them.
    """
    n = draw(nvars)
    weights = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    if sparse:
        exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=3).map(
            lambda e: tuple(e.get(i, 0) for i in range(n)))
    else:
        exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(lambda t: Poly(n, t))

    def field():
        grade = draw(st.integers(0, min(n, max_grade)))
        leg_sets = list(itertools.combinations(range(1, n + 1), grade))
        legs = draw(st.lists(st.sampled_from(leg_sets), unique=True, max_size=3))
        return PolyMVF(n, grade, {I: draw(polys) for I in legs}, weights)

    return field(), field()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(field_pairs())
def test_schouten_matches_reference(pair):
    W, V = pair
    expected = _reference_schouten(W, V)
    got = schouten(W, V)
    assert got == expected and got.grade == expected.grade
    _assert_canonical(got)
    for m in range(6):
        assert schouten(W, V, max_grade=m) == truncate_jet(expected, m)
    # wedge is the kernel's multiply too: weighted and grade-0 operands included
    product = wedge(W, V)
    assert product == _reference_wedge(W, V) and product.grade == W.grade + V.grade
    _assert_canonical(product)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(field_pairs(nvars=st.integers(5, 8), max_grade=4, sparse=True))
def test_kernel_matches_references_up_to_8_legs(pair):
    # su(3) brackets use legs up to 8, so every bit of a leg mask is in use
    W, V = pair
    expected = _reference_schouten(W, V)
    got = schouten(W, V)
    assert got == expected and got.grade == expected.grade
    _assert_canonical(got)
    for m in range(6):
        assert schouten(W, V, max_grade=m) == truncate_jet(expected, m)
    product = wedge(W, V)
    assert product == _reference_wedge(W, V) and product.grade == W.grade + V.grade
    _assert_canonical(product)


@st.composite
def same_kind_pairs(draw):
    """(A, B, sign): fields of one grade and weight vector on R^n, with up to
    twelve monomials each and denominators of unequal primes.  B is drawn on its
    own, or as a rational multiple of A (so A - A and A + (-A) cancel to zero),
    or as such a multiple plus a field of its own (so some monomials cancel)."""
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    grade = draw(st.integers(0, min(n, 3)))
    leg_sets = list(itertools.combinations(range(1, n + 1), grade))
    coeffs = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.sampled_from([1, 2, 3, 4, 9]))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeffs, max_size=4).map(
        lambda t: Poly(n, t))

    def field():
        legs = draw(st.lists(st.sampled_from(leg_sets), unique=True, max_size=3))
        return PolyMVF(n, grade, {I: draw(polys) for I in legs}, weights)

    A, shape = field(), draw(st.sampled_from(["free", "multiple", "shared"]))
    B = field() if shape != "multiple" else PolyMVF.zero(n, grade, weights)
    if shape != "free":
        B = B + A * draw(st.sampled_from([1, -1]) | coeffs)
    return A, B, draw(st.sampled_from([1, -1]))


def _poly_sum(A: PolyMVF, B: PolyMVF, sign: int) -> PolyMVF:
    """A + sign * B through the ``Poly`` arithmetic of the ``.terms`` coefficients."""
    terms = dict(A.terms)
    for legs, p in B.terms.items():
        q = terms.get(legs, Poly.zero(A.nvars))
        terms[legs] = q + p if sign == 1 else q - p
    return PolyMVF(A.nvars, A.grade, {I: p for I, p in terms.items() if not p.is_zero()},
                   A.weights)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(same_kind_pairs())
def test_sum_and_difference_match_poly_arithmetic(case):
    # + and - copy the operand with more monomials and add the other into it:
    # either side may be the larger, and - forms no negated copy of B
    A, B, sign = case
    for left, right in ((A, B), (B, A)):
        got = left + right if sign == 1 else left - right
        expected = _poly_sum(left, right, sign)
        assert got == expected and hash(got) == hash(expected)
        assert dict(got.terms) == dict(expected.terms)
        assert got.is_zero() == (not expected.terms)
        if not got.is_zero():
            _assert_canonical(got)
    assert A - B == A + (-B) and hash(A - B) == hash(A + (-B))


def _copy(W: PolyMVF) -> PolyMVF:
    """W with its own ``_ints`` dict, so that a bracket with W takes the two-product path."""
    return PolyMVF._raw(W.nvars, W.grade, dict(W._ints), W.weights, W.den)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(field_pairs(nvars=st.integers(1, 5), max_grade=4), st.one_of(st.none(), st.integers(0, 5)))
def test_self_bracket_equals_the_bracket_with_a_copy(pair, bound):
    # [W, W] is formed from its first product, doubled, and is 0 for odd |W|
    for W in pair:
        self_bracket = schouten(W, W, bound)
        assert self_bracket == schouten(W, _copy(W), bound)
        assert self_bracket.grade == max(2 * W.grade - 1, 0)
        if W.grade % 2:
            assert self_bracket.is_zero()


def test_self_bracket_forms_one_product_per_variable(monkeypatch):
    n = 4
    W = PolyMVF(n, 2, {(1, 2): parse_poly("x3 + x4^2", n), (1, 3): parse_poly("x1*x3", n),
                       (2, 4): parse_poly("x2 - 2*x1", n), (3, 4): parse_poly("x1*x2", n)})
    spy = mock.Mock(wraps=_merge_sign)
    monkeypatch.setattr(multivector, "_merge_sign", spy)
    self_bracket = schouten(W, W)
    self_calls, spy.call_count = spy.call_count, 0
    assert self_bracket == schouten(W, _copy(W)) and not self_bracket.is_zero()
    assert 0 < self_calls < spy.call_count


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 8), unique=True).map(sorted),
       st.lists(st.integers(1, 8), unique=True).map(sorted))
def test_mask_sign_matches_the_insertion_sort(I, J):
    # legs of I, then of J, overlaps allowed: a shared leg is a common bit
    A, B = _mask(I), _mask(J)
    assert _legs(A) == tuple(I)
    key, sign = _sort_indices(I + J)
    if A & B:
        assert sign == 0
    else:
        assert (key, sign) == (_legs(A | B), _merge_sign(A, B))


def _reference_rows(pi, basis):
    """``_bracket_rows`` assembled column by column from ``_reference_schouten``."""
    rows = {}
    for col, (legs, exps) in enumerate(basis):
        b = PolyMVF(pi.nvars, len(legs), {legs: Poly.monomial(pi.nvars, exps)}, pi.weights)
        for lg, poly in _reference_schouten(pi, b).terms.items():
            for e, c in poly.terms.items():
                rows.setdefault((lg, e), {})[col] = c
    return rows


def _criterion_4_jet(scale=1):
    """The criterion-4 jet: the nonlinear, weighted pi that prolong_step brackets."""
    return PolyMVF(3, 2, {(1, 2): parse_poly("x3", 3), (1, 3): parse_poly("x1*x3", 3)},
                   weights=(0, 0, 1)) * scale


def _grades_1_to_4():
    """A weighted pi with monomials of grades 1 to 4 (fiber degree plus base legs)."""
    return PolyMVF(3, 2, {(1, 2): parse_poly("x3", 3), (1, 3): parse_poly("x1 + x3^3", 3),
                          (2, 3): parse_poly("x2*x3", 3)}, weights=(0, 0, 1))


def _inhomogeneous():
    """so3 with constant and quadratic parts, as a Casimir solve brackets it."""
    return linear_poisson(preset("so3")) + PolyMVF(
        3, 2, {(1, 2): parse_poly("x1^2 - 2", 3), (2, 3): parse_poly("1/3*x2*x3", 3)})


@pytest.mark.parametrize("build, base_degree_cap", [
    (lambda: linear_poisson(preset("so3")), 0),
    (lambda: linear_poisson(preset("sl2")), 0),
    (lambda: linear_poisson(preset("su2")), 0),
    (_criterion_4_jet, 2),
    (lambda: _criterion_4_jet(Fraction(2, 3)) + PolyMVF(
        3, 2, {(2, 3): parse_poly("1/5*x2^2*x3^2", 3)}, weights=(0, 0, 1)), 2),
    (_grades_1_to_4, 1),
    (_inhomogeneous, 0),
], ids=["so3", "sl2", "su2", "criterion-4", "criterion-4-rational", "grades-1-to-4",
        "inhomogeneous"])
def test_bracket_rows_match_reference(build, base_degree_cap):
    # the column tags sit above the grade bits, which hold every g + h formed:
    # under a bound of 3 or 6, pairs of grades up to 4 sum to 4 or 7 (3 bits);
    # unbounded, the columns are at grade 0 and the sums reach pi's largest
    # grade, 2 for the inhomogeneous pi, whose Casimir basis spans degrees 0..3
    pi = build()
    bases = [graded_basis(pi.nvars, k, l, pi.weights, base_degree_cap)
             for k in range(4) for l in range(5)]
    bases.append([mono for d in range(4) for mono in graded_basis(pi.nvars, 0, d, pi.weights)])
    for basis in bases:
        for max_grade in (None, 3, 6):
            _assert_rows_match_reference(pi, basis, max_grade)


@pytest.mark.parametrize("k, l", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_bracket_rows_match_reference_su3(k, l):
    # eight legs: the column tags sit above an 8-bit leg mask in the sum keys
    pi = linear_poisson(preset("su3"))
    _assert_rows_match_reference(pi, graded_basis(pi.nvars, k, l, pi.weights))


def _assert_rows_match_reference(pi, basis, max_grade=None):
    den, rows = decoded_rows(pi, basis, max_grade)
    assert all(type(c) is int and c for row in rows.values() for c in row.values())
    assert {key: {c: Fraction(v, den) for c, v in row.items()}
            for key, row in rows.items()} == {
        key: row for key, row in _reference_rows(pi, basis).items()
        if max_grade is None or _grade(pi.weights, *key) <= max_grade}


@st.composite
def matrix_cases(draw, pairs):
    """(pi, basis, max_grade): the first field of a ``field_pairs`` draw, up to
    twelve elements of a ``graded_basis`` of k-vectors (k = 0..3) on its
    weights, and a bound of None or 0..5."""
    pi, _ = draw(pairs)
    n = pi.nvars
    k, l, cap = draw(st.integers(0, min(3, n))), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    while basis_size(n, k, l, pi.weights, cap) > MAX_BASIS:  # many base variables
        cap, l = (cap - 1, l) if cap else (cap, l - 1)
    basis = graded_basis(n, k, l, pi.weights, cap)
    if basis:
        basis = draw(st.lists(st.sampled_from(basis), unique=True, max_size=12))
    return pi, basis, draw(st.none() | st.integers(0, 5))


def _assert_drawn_rows_match_reference(pi, basis, max_grade):
    # each row key decodes to its own (legs, exps): no two rows share one
    _, rows, decode = _bracket_rows(pi, basis, max_grade)
    assert len({decode(key) for key in rows}) == len(rows)
    _assert_rows_match_reference(pi, basis, max_grade)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(matrix_cases(field_pairs(nvars=st.integers(1, 5))))
def test_bracket_rows_match_reference_on_drawn_fields(case):
    # weights in {0,1}^n and denominators up to 6: grades, columns and
    # cancelling products in every mix the kernel meets
    _assert_drawn_rows_match_reference(*case)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(matrix_cases(field_pairs(nvars=st.integers(5, 8), max_grade=4, sparse=True)))
def test_bracket_rows_match_reference_up_to_8_legs(case):
    _assert_drawn_rows_match_reference(*case)


def test_bracket_never_takes_the_poly_path(monkeypatch):
    # the kernel works on integer coefficients of packed exponent words: a
    # Poly product, sum or derivative inside it is the slow path come back
    rng = random.Random(21)
    pairs = [(rand_mvf(rng, n, rng.randint(0, n)), rand_mvf(rng, n, rng.randint(0, n)))
             for n in (2, 3, 4) for _ in range(10)]
    pi = linear_poisson(preset("so3"))
    basis = graded_basis(3, 2, 2, pi.weights)
    # the anchor is a bracket and a wedge: a 1-form of Poly and scalar coefficients
    f, form = rand_poly(rng, 3), [rand_poly(rng, 3), Fraction(-2, 3), "1/2"]
    anchors = [hamiltonian_vf(pi, f), sharp(pi, 2), sharp(pi, form)]

    def refuse(*args):
        raise AssertionError("Poly arithmetic inside the Schouten kernel")
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "diff"):
        monkeypatch.setattr(Poly, name, refuse)
    for W, V in pairs:
        assert schouten(W, V).grade == max(W.grade + V.grade - 1, 0)
        schouten(W, V, max_grade=2)
        assert wedge(W, V).grade == W.grade + V.grade
    assert _bracket_rows(pi, basis)[1]
    assert [hamiltonian_vf(pi, f), sharp(pi, 2), sharp(pi, form)] == anchors
