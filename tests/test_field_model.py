"""Integer multivector fields against an independent model, and carried grades.

The model of a field is a plain ``{(legs, exps): Fraction}`` dict, with the
dilation grade of each monomial computed here from its definition.  Its
linear structure and grading are written out below with dict and
``Fraction`` operations only, so no arithmetic of the package is shared.
The text a field's JSON holds is read back by sympy, which shares no code
with the package's grammar reader and writer.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import (PolyMVF, dilate, grade_component, linear_poisson, preset, schouten,
                          truncate_jet)
from poissonforge import multivector
from poissonforge.polyalg import Poly, format_poly

from conftest import rand_mvf


def _model_grade(weights, legs, exps):
    fiber = sum(e for e, w in zip(exps, weights) if w == 1)
    return fiber + sum(1 for i in legs if weights[i - 1] == 0)


def _to_field(n, q, weights, model):
    terms = {}
    for (legs, exps), c in model.items():
        terms.setdefault(legs, {})[exps] = c
    return PolyMVF(n, q, {legs: Poly(n, t) for legs, t in terms.items()}, weights)


def _to_model(W):
    return {(legs, exps): c for legs, poly in W.terms.items() for exps, c in poly.terms.items()}


def _cleaned(model):
    return {key: c for key, c in model.items() if c != 0}


def _combine(a, b, sign):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return _cleaned(out)


def _where(model, weights, keep):
    return {(legs, exps): c for (legs, exps), c in model.items()
            if keep(_model_grade(weights, legs, exps))}


def _assert_canonical(W):
    # one representation per field: a positive den, coprime to the numerators
    assert W.den > 0 and math.gcd(W.den, *W._ints.values()) == 1
    for (g, legs, exps), c in W._ints.items():
        assert type(c) is int and c != 0
        assert g == _model_grade(W.weights, legs, exps)


@st.composite
def fields(draw, n=None, q=None, weights=None):
    """(n, q, weights, model, field): a random q-vector field on R^n, n <= 3,
    whose monomials have grades 0..3, with ``Fraction`` coefficients."""
    n = draw(st.integers(1, 3)) if n is None else n
    weights = (tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
               if weights is None else weights)
    q = draw(st.integers(0, n)) if q is None else q
    monos = [(legs, exps) for legs in itertools.combinations(range(1, n + 1), q)
             for exps in itertools.product(range(4), repeat=n)
             if _model_grade(weights, legs, exps) <= 3]
    coeffs = st.builds(Fraction, st.integers(-12, 12).filter(bool),
                       st.sampled_from([1, 2, 3, 4, 6]))
    model = draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6)) if monos else {}
    return n, q, weights, model, _to_field(n, q, weights, model)


scalars = st.one_of(st.integers(-5, 5),
                    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_linear_structure_matches_the_model(data):
    n, q, weights, a, W = data.draw(fields())
    _, _, _, b, V = data.draw(fields(n, q, weights))
    t = data.draw(scalars)
    for field, model in [(W + V, _combine(a, b, 1)), (W - V, _combine(a, b, -1)),
                         (-W, {key: -c for key, c in a.items()}),
                         (W * t, _cleaned({key: c * t for key, c in a.items()})),
                         (t * W, _cleaned({key: c * t for key, c in a.items()}))]:
        _assert_canonical(field)
        assert _to_model(field) == model
        assert field == _to_field(n, q, weights, model)
        assert hash(field) == hash(_to_field(n, q, weights, model))
    assert (W * 0).is_zero() and (W * Fraction(0)).is_zero()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_grading_matches_the_model(data):
    n, q, weights, a, W = data.draw(fields())
    grades = {_model_grade(weights, legs, exps) for legs, exps in a}
    assert W.min_grade() == min(grades, default=None)
    for k in range(5):
        kept = truncate_jet(W, k)
        _assert_canonical(kept)
        assert _to_model(kept) == _where(a, weights, lambda g: g <= k)
        piece = grade_component(W, k).value
        _assert_canonical(piece)
        assert _to_model(piece) == _where(a, weights, lambda g: g == k)
    pieces = W.graded_pieces()
    assert sorted(pieces) == sorted(grades)
    for l, piece in pieces.items():
        _assert_canonical(piece)
        assert _to_model(piece) == _where(a, weights, lambda g: g == l)
    t = data.draw(scalars.filter(bool))
    scaled = dilate(W, t)
    _assert_canonical(scaled)
    t = Fraction(t)
    assert _to_model(scaled) == {(legs, exps): c * t ** (_model_grade(weights, legs, exps) - 1)
                                 for (legs, exps), c in a.items()}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_equality_is_canonical(data):
    n, q, weights, a, W = data.draw(fields())
    back = (W * 3) * Fraction(1, 3)
    assert back == W and hash(back) == hash(W)
    halves = W * Fraction(1, 2) + W * Fraction(1, 2)
    assert halves == W and hash(halves) == hash(W)
    other = (q + 1) % (n + 1)
    zero = PolyMVF.zero(n, other, weights)
    assert W - W == zero and hash(W - W) == hash(zero)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_reweighting_regrades_the_same_coefficients(data):
    n, q, weights, a, W = data.draw(fields())
    w = tuple(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    moved = W.with_weights(w)
    _assert_canonical(moved)  # each monomial's grade recomputed under w
    assert moved == PolyMVF(n, q, W.terms, w) and moved.weights == w
    assert _to_model(moved) == a


def test_grades_stay_carried():
    # operations on fields that already exist read their monomials' grades;
    # only a monomial entering a field has its grade computed
    existing = [rand_mvf(random.Random(s), 3, 2, max_deg=3, nterms=3).with_weights(w)
                for s, w in [(1, (1, 1, 1)), (2, (0, 1, 1)), (3, (0, 0, 1))]]
    existing.append(linear_poisson(preset("su3")))
    with mock.patch.object(multivector, "_grade", wraps=multivector._grade) as grade:
        for W in existing:
            W.min_grade()
            W.graded_pieces()
            for k in range(4):
                truncate_jet(W, k)
                grade_component(W, k)
                schouten(W, W, max_grade=k)
            dilate(W, Fraction(2, 3))
        assert grade.call_count == 0
        PolyMVF(3, 1, {(1,): Poly.variable(3, 2)})
        assert grade.call_count == 1


def _sympy_coefficients(text, n):
    """``{exps: Fraction}`` of a polynomial string, as sympy parses it."""
    xs = sympy.symbols(f"x1:{n + 1}")
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict={str(x): x for x in xs})
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in sympy.Poly(expr, *xs).terms() if c}


def _repr_from_terms(W):
    """The text rendering of a field, written from its ``{legs: Poly}`` form."""
    terms = sorted(W.terms.items())
    if W.grade == 0:
        body = format_poly(terms[0][1]) if terms else "0"
    else:
        body = " + ".join(f"({format_poly(p)}) " + "^".join(f"d{i}" for i in legs)
                          for legs, p in terms) or "0"
    return f"<PolyMVF deg={W.grade} {body}>"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_json_round_trip_matches_the_grammar_oracle(data):
    # the integer reader and writer of a field's JSON against sympy's parse of
    # the same text, and against the Poly-level format_poly
    n, q, weights, a, W = data.draw(fields())
    obj = W.to_json_obj()
    back = PolyMVF.from_json_obj(obj)
    _assert_canonical(back)
    assert back == W and hash(back) == hash(W)
    assert [entry["indices"] for entry in obj["terms"]] == sorted(map(list, W.terms))
    for entry in obj["terms"]:
        legs = tuple(entry["indices"])
        assert entry["poly"] == format_poly(W.terms[legs])
        assert _sympy_coefficients(entry["poly"], n) == {
            exps: c for (mono_legs, exps), c in a.items() if mono_legs == legs}
    assert repr(W) == repr(back) == _repr_from_terms(W)
    assert (obj["terms"] == []) == (a == {})
