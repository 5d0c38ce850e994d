"""Formal calculus: jets, exp-adjoint series, BCH, gauge recursion, prolongation."""

import contextlib
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from poissonforge import (PolyMVF, ad_exp, bch, formal_linearize,
                          grade_component, homotopy_solve, linear_poisson,
                          mc_equivalence, order_of, preset, prolong_step,
                          schouten, truncate_jet)
from poissonforge import formal, polyalg
from poissonforge.formal import FilteredJet
from poissonforge.multivector import _grade
from poissonforge.poisson import bracket_rows
from poissonforge.polyalg import parse_poly

from conftest import rand_homogeneous_vf, rand_mvf


def _strip_constant_part(u):
    """Drop the grade-0 piece so the multivector lives in the jet filtration."""
    return u - grade_component(u, 0).value


def _broken_linear_bivector():
    """Linear bivector of the non-Jacobi table [e1,e2]=e1, [e1,e3]=e3."""
    from poissonforge import linear_poisson
    from poissonforge.liealg import LieAlgebraSpec
    return linear_poisson(LieAlgebraSpec(
        dim=3, C={(1, 2, 1): Fraction(1), (1, 3, 3): Fraction(1)}))


@contextlib.contextmanager
def _spied_solve():
    """Spies on the bracket-equation solve and on the Fraction elimination."""
    with mock.patch.object(formal, "_solve_bracket_equation",
                           wraps=formal._solve_bracket_equation) as solve, \
            mock.patch.object(polyalg, "_eliminate", wraps=polyalg._eliminate) as eliminate:
        yield solve, eliminate


def _assert_certificate(call, w):
    """w A = 0 and w . b = 1 on the system of a ``_solve_bracket_equation`` call.

    The rows are rebuilt from ``bracket_rows`` on the call's basis, keyed by
    the same sorted (legs, exps) monomials as the solve.
    """
    (pi, rhs, basis), kwargs = call
    restrict = kwargs.get("restrict_grade")
    rows = {key: row for key, row in bracket_rows(pi, basis).items()
            if restrict is None or _grade(pi.weights, *key) <= restrict}
    keys = sorted(set(rows) | {(legs, e) for legs, p in rhs.terms.items() for e in p.terms})
    assert len(w) == len(keys)
    for col in range(len(basis)):
        assert sum(wi * rows.get(key, {}).get(col, 0) for wi, key in zip(w, keys)) == 0
    b = [rhs.terms[legs].terms.get(e, 0) if legs in rhs.terms else 0 for legs, e in keys]
    assert sum(wi * bi for wi, bi in zip(w, b)) == 1


def test_order_of():
    n = 2
    u = PolyMVF(n, 1, {(1,): parse_poly("x1^2 + x2^3", n)})
    assert order_of(u) == 1
    assert order_of(PolyMVF(n, 1, {(1,): parse_poly("x1", n)})) == 0
    assert order_of(PolyMVF.zero(n, 1)) == float("inf")


def test_filtered_jet_truncates():
    n = 2
    u = PolyMVF(n, 1, {(1,): parse_poly("x1 + x1^4", n)})
    jet = FilteredJet(u, 2)
    assert jet.value == PolyMVF(n, 1, {(1,): parse_poly("x1", n)})
    assert jet.order == 0


def test_ad_exp_inverse_law():
    rng = random.Random(28)
    D = 4
    for _ in range(20):
        n = rng.randint(2, 3)
        X = rand_homogeneous_vf(rng, n, rng.randint(2, 3))
        u = rand_mvf(rng, n, rng.randint(1, 2), max_deg=2)
        fwd = ad_exp(X, u, D)
        back = ad_exp(-X, fwd, D)
        assert back.value == truncate_jet(u, D)


def test_ad_exp_is_bracket_automorphism():
    rng = random.Random(29)
    D = 4
    for _ in range(15):
        n = 2
        X = rand_homogeneous_vf(rng, n, 2)
        u = _strip_constant_part(rand_mvf(rng, n, 1, max_deg=2))
        v = _strip_constant_part(rand_mvf(rng, n, 2, max_deg=2))
        lhs = ad_exp(X, schouten(u, v), D).value
        rhs = truncate_jet(schouten(ad_exp(X, u, D).value,
                                    ad_exp(X, v, D).value), D)
        assert lhs == rhs


def test_bch_worked_example():
    # for commuting-tail fields on the line: [x^2 dx, x^3 dx] = x^4 dx
    n = 1
    X = PolyMVF(n, 1, {(1,): parse_poly("x1^2", n)})
    Y = PolyMVF(n, 1, {(1,): parse_poly("x1^3", n)})
    Z = bch(X, Y, 4).value
    half_x4 = PolyMVF(n, 1, {(1,): parse_poly("1/2*x1^4", n)})
    assert Z == X + Y + half_x4


def test_bch_inverse():
    rng = random.Random(30)
    for _ in range(10):
        X = rand_homogeneous_vf(rng, 2, 2)
        assert bch(X, -X, 4).value.is_zero()


def test_bch_group_law_small_batch():
    rng = random.Random(31)
    D = 3
    for _ in range(10):
        n = 2
        X = rand_homogeneous_vf(rng, n, 2)
        Y = rand_homogeneous_vf(rng, n, 2)
        u = _strip_constant_part(rand_mvf(rng, n, 2, max_deg=1))
        lhs = ad_exp(bch(X, Y, D), u, D).value
        rhs = ad_exp(X, ad_exp(Y, u, D), D).value
        assert lhs == rhs


def _dynkin_reference(X, Y, D):
    """Unpruned Dynkin sum: every word with at most D-1 ad operators, each
    bracket formed in full and truncated afterwards.  Words are memoised by
    their operator string, applied innermost first."""
    memo = {"": X}

    def word(ops):
        if ops not in memo:
            Z = X if ops[-1] == "X" else Y
            memo[ops] = truncate_jet(schouten(Z, word(ops[:-1])), D)
        return memo[ops]

    total = X + Y
    budget = D - 1
    for k in range(1, budget + 1):
        for blocks in itertools.product(
                [(l, m) for l in range(budget + 1) for m in range(budget + 1)
                 if 1 <= l + m <= budget], repeat=k):
            if sum(l + m for l, m in blocks) > budget:
                continue
            ops = "".join("Y" * m + "X" * l for l, m in reversed(blocks))
            denom = (sum(l for l, _ in blocks) + 1) * math.prod(
                math.factorial(l) * math.factorial(m) for l, m in blocks)
            total = total + word(ops) * Fraction((-1) ** k, (k + 1) * denom)
    return total


@pytest.mark.parametrize("D", [4, 5])
def test_bch_pruning_matches_unpruned_sum(D):
    # unequal orders: the bound o(X)(1+sum l) + o(Y) sum m weighs ad_X and
    # ad_Y differently only when o(X) != o(Y)
    rng = random.Random(35 + D)
    for _ in range(8):
        n = rng.randint(2, 3)
        high, low = rng.randint(3, 4), 2
        if rng.random() < 0.5:
            high, low = low, high
        X = truncate_jet(rand_homogeneous_vf(rng, n, high)
                         + rand_homogeneous_vf(rng, n, high + 1), D)
        Y = truncate_jet(rand_homogeneous_vf(rng, n, low)
                         + rand_homogeneous_vf(rng, n, low + 1), D)
        Z = bch(X, Y, D)
        assert Z.value == _dynkin_reference(X, Y, D)
        u = _strip_constant_part(rand_mvf(rng, n, rng.randint(1, 2), max_deg=2))
        assert ad_exp(Z, u, D).value == ad_exp(X, ad_exp(Y, u, D), D).value
        zero = PolyMVF.zero(n, 1)
        assert bch(X, zero, D).value == X
        assert bch(zero, Y, D).value == Y


def test_gauge_fields_pinned():
    # sha256 of the gauge fields of criterion 2 (same draw), captured before
    # the grade-bounded bracket and the pruned Dynkin sum were introduced
    pi_so3 = linear_poisson(preset("so3"))
    rng = random.Random(42)
    out = []
    for _ in range(20):
        X0 = rand_homogeneous_vf(rng, 3, rng.choice([2, 2, 3]))
        if X0.is_zero():
            X0 = rand_homogeneous_vf(rng, 3, 2)
        pi = ad_exp(X0, pi_so3, 4).value
        out.append(formal_linearize(pi, 4).to_json())
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "efa324468258d553e11d936d1b430eb1ccfc6bfc194a5c549a9d115458d9753b"


def test_homotopy_solve_recovers_coboundary(pi_so3):
    rng = random.Random(32)
    for _ in range(10):
        X = rand_homogeneous_vf(rng, 3, rng.randint(2, 3))
        Z_full = schouten(pi_so3, X)
        if Z_full.is_zero():
            continue
        q = Z_full.min_grade()
        Z = grade_component(Z_full, q)
        res = homotopy_solve(pi_so3, Z)
        assert res.status == "solved"
        assert grade_component(schouten(pi_so3, res.X.value), q).value \
            == Z.value


def test_homotopy_solve_rejects_non_cocycle(pi_so3):
    # x1^2 d1^d2 is not closed for the rotation structure
    Z = grade_component(PolyMVF(3, 2, {(1, 2): parse_poly("x1^2", 3)}), 2)
    with pytest.raises(ValueError):
        homotopy_solve(pi_so3, Z)


def test_mc_equivalence_constructed_pair(pi_so3):
    rng = random.Random(33)
    D = 4
    for _ in range(3):
        X0 = rand_homogeneous_vf(rng, 3, 2)
        gamma = ad_exp(X0, pi_so3, D)
        sol = mc_equivalence(gamma, FilteredJet(pi_so3, D), D)
        assert sol.status == "equivalent"
        assert ad_exp(sol.X, pi_so3, D).value == gamma.value


def test_mc_equivalence_obstruction_on_plane():
    # with vanishing linear part no gauge can remove a quadratic term
    n = 2
    gamma = FilteredJet(PolyMVF(n, 2, {(1, 2): parse_poly("x1^2", n)}), 4)
    gamma_p = FilteredJet(PolyMVF.zero(n, 2), 4)
    with _spied_solve() as (solve, eliminate):
        sol = mc_equivalence(gamma_p, gamma, 4)
    assert sol.status == "obstructed"
    _assert_certificate(solve.call_args, sol.certificate)
    assert eliminate.call_count == 0
    assert sol.degree == 2
    assert not sol.cochain.value.is_zero()
    obj = json.loads(sol.to_json())
    assert obj["status"] == "obstructed" and obj["degree"] == 2


def test_mc_equivalence_rejects_non_mc():
    bad = _broken_linear_bivector()
    assert not schouten(bad, bad).is_zero()
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        mc_equivalence(FilteredJet(bad, 3), FilteredJet(bad, 3), 3)


def test_gauge_solution_json(pi_so3):
    sol = mc_equivalence(FilteredJet(pi_so3, 3), FilteredJet(pi_so3, 3), 3)
    obj = json.loads(sol.to_json())
    assert obj["status"] == "equivalent"
    assert obj["rounds"] == 0
    assert obj["X"]["grade"] == 1


def test_formal_linearize_input_validation():
    n = 2
    const = PolyMVF(n, 2, {(1, 2): parse_poly("1 + x1", n)})
    with pytest.raises(ValueError, match="origin"):
        formal_linearize(const, 3)
    with pytest.raises(ValueError, match="not Poisson"):
        formal_linearize(_broken_linear_bivector(), 3)


def test_prolong_step_extends_a_2jet(pi_so3):
    rng = random.Random(34)
    X0 = rand_homogeneous_vf(rng, 3, 2)
    full = ad_exp(X0, pi_so3, 3).value
    two_jet = truncate_jet(full, 2)
    res = prolong_step(FilteredJet(two_jet, 2), 3)
    assert res.status == "solved"
    corrected = two_jet + res.eta
    jac = schouten(corrected, corrected)
    assert jac.is_zero() or jac.min_grade() > 3


def test_prolong_step_rejects_early_failure():
    bad = _broken_linear_bivector()
    with pytest.raises(ValueError, match="below grade"):
        prolong_step(FilteredJet(bad, 2), 5)


def test_prolong_obstruction_certificate():
    # weighted fixture where no fiber-ideal correction can repair grade 4
    n = 3
    pi = PolyMVF(n, 2, {(1, 2): parse_poly("x3", n),
                        (1, 3): parse_poly("x1*x3", n)},
                 weights=(0, 0, 1))
    jac = schouten(pi, pi)
    m = jac.min_grade()
    with _spied_solve() as (solve, eliminate):
        res = prolong_step(FilteredJet(pi, m), m, base_degree_cap=4)
    assert res.status == "obstructed"
    assert not res.obstruction.value.is_zero()
    _assert_certificate(solve.call_args, res.certificate)
    assert eliminate.call_count == 0
