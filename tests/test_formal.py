"""Formal calculus: jets, exp-adjoint series, BCH, gauge recursion, prolongation."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import (Poly, PolyMVF, ad_exp, bch, formal_linearize,
                          grade_component, homotopy_solve, linear_poisson,
                          mc_equivalence, order_of, preset, prolong_step,
                          schouten, truncate_jet)
from poissonforge import cli, formal, multivector, poisson, polyalg
from poissonforge.formal import FilteredJet
from poissonforge.liealg import LieAlgebraSpec
from poissonforge.multivector import _grade
from poissonforge.poisson import graded_basis
from poissonforge.polyalg import parse_poly

import exact_verbs
from conftest import decoded_rows, rand_homogeneous_vf, rand_mvf
from test_lie_series_oracle import _bch_cases


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
    """Spies on the bracket-equation solve, on ``_rref`` and on
    ``_rref_mod_p``, which runs once per prime."""
    with mock.patch.object(formal, "_solve_bracket_equation",
                           wraps=formal._solve_bracket_equation) as solve, \
            mock.patch.object(polyalg, "_rref", wraps=polyalg._rref) as rref, \
            mock.patch.object(polyalg, "_rref_mod_p", wraps=polyalg._rref_mod_p) as mod_p:
        yield solve, rref, mod_p


def _assert_certificate(call, w):
    """w A = 0 and w . b = 1 on the system of a ``_solve_bracket_equation`` call.

    The rows are rebuilt from ``_bracket_rows`` on the call's basis, their
    keys decoded into the same sorted (legs, exps) monomials as the solve, and
    divided by its denominator.
    """
    (pi, rhs, basis), kwargs = call
    restrict = kwargs.get("restrict_grade")
    den, int_rows = decoded_rows(pi, basis)
    rows = {key: {c: Fraction(v, den) for c, v in row.items()}
            for key, row in int_rows.items()
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
    assert order_of(jet) == 0


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


def test_ad_exp_reads_the_exponent_one_grade_past_a_constant_part():
    # [x1^3 d1, d1^d2] = -3 x1^2 d1^d2: the grade-3 part of X brackets the
    # grade-0 part of u into grade 2, so it counts in the 2-jet
    n = 2
    X = PolyMVF(n, 1, {(1,): parse_poly("x1^3", n)})
    u = PolyMVF(n, 2, {(1, 2): parse_poly("1 + x1", n)})
    assert ad_exp(X, u, 2).value == PolyMVF(n, 2, {(1, 2): parse_poly("-3*x1^2 + x1 + 1", n)})
    # a 2-jet of X does not know that part
    with pytest.raises(ValueError, match="a jet of order 2 cannot stand for one of order 3"):
        ad_exp(FilteredJet(X, 2), u, 2)


def _outcome(f):
    """``f()``, or the type of the exception it raises."""
    try:
        return f()
    except Exception as e:  # the type of any exception is the outcome
        return type(e)


def _series_reference(X, u, D):
    """sum_n ad_X^n(u)/n! from public brackets, each bounded by D; X is read to
    grade D + 1 where u has a grade-0 part, as ``ad_exp`` reads it."""
    u = truncate_jet(u, D)
    X = truncate_jet(X, D if grade_component(u, 0).value.is_zero() else D + 1)
    acc = term = u
    for n in range(1, 4 * D + 9):
        term = schouten(X, term, max_grade=D) * Fraction(1, n)
        if term.is_zero():
            return acc
        acc = acc + term
    raise RuntimeError("the series did not end")


@st.composite
def _series_cases(draw):
    """(X, u, D): n = 1-4, weights in {0,1}^n, D = 0-5, u of degree 0-3 and grades
    0..D, X a vector field of grades 2..D+1.  Either may be zero, and an X whose
    grades all lie above D + 1 - (u's least grade) is emptied by the bound."""
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    D = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))

    def field(degree, grades):
        leg_sets = list(itertools.combinations(range(1, n + 1), degree))
        monos = draw(st.dictionaries(st.tuples(st.sampled_from(leg_sets), exps), coeffs,
                                     max_size=5))
        terms = {}
        for (legs, e), c in monos.items():
            terms.setdefault(legs, {})[e] = c
        W = PolyMVF(n, degree, {legs: Poly(n, t) for legs, t in terms.items()}, weights)
        pieces = [p for g, p in W.graded_pieces().items() if g in grades]
        return sum(pieces, PolyMVF.zero(n, degree, weights))

    u = field(draw(st.integers(0, min(3, n))), range(D + 1))
    return field(1, range(2, D + 2)), u, D


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_series_cases())
def test_ad_exp_is_the_series_of_public_brackets(case):
    # the series runs on the kernel's packed groups: X is packed once, and
    # each step brackets the groups of the step before
    X, u, D = case
    with mock.patch.object(multivector, "_pack", wraps=multivector._pack) as pack:
        got = _outcome(lambda: ad_exp(X, u, D).value)
    assert got == _outcome(lambda: _series_reference(X, u, D))
    assert pack.call_count in (0, 2)  # X and u, or neither when the series is u


def test_a_long_series_packs_its_exponent_once(pi_so3):
    # ad_X^k(pi) for a grade-2 X reaches grade 5 in five steps
    X = PolyMVF(3, 1, {(1,): parse_poly("x2^2", 3), (3,): parse_poly("x1*x2 - x3^2", 3)})
    with mock.patch.object(multivector, "_pack", wraps=multivector._pack) as pack, \
            mock.patch.object(multivector, "_products", wraps=multivector._products) as steps, \
            mock.patch.object(multivector, "_schouten_sums") as bracket:
        got = ad_exp(X, pi_so3, 5).value
    assert got == _series_reference(X, pi_so3, 5)
    assert sorted(len(next(iter(call.args[0]))[1]) for call in pack.call_args_list) == [1, 2]
    assert steps.call_count >= 4 and bracket.call_count == 0


def test_packed_series_fields_hold_every_step():
    # x1 is a base variable, so its degree grows by 2 in each of five steps
    # while the grade grows by 1: the fields must hold deg u + 5 deg X
    X = PolyMVF(2, 1, {(1,): parse_poly("x1^3*x2", 2)}, (0, 1))
    u = PolyMVF.from_function(parse_poly("x1^3", 2), (0, 1))
    assert ad_exp(X, u, 5).value == _series_reference(X, u, 5) == PolyMVF.from_function(
        parse_poly("693/8*x1^13*x2^5 + 315/8*x1^11*x2^4 + 35/2*x1^9*x2^3 + 15/2*x1^7*x2^2"
                   " + 3*x1^5*x2 + x1^3", 2), (0, 1))


def test_gauge_of_a_field_with_a_constant_part():
    # the loop hands ad_exp each round's homogeneous field as an exact field,
    # which a grade-0 part of gamma' needs one grade past D
    n, D = 2, 3
    gamma_p = PolyMVF(n, 2, {(1, 2): parse_poly("1 - x1 + 2*x2", n)})
    gamma = ad_exp(PolyMVF(n, 1, {(1,): parse_poly("3*x2^2", n)}), gamma_p, D)
    sol = mc_equivalence(gamma, FilteredJet(gamma_p, D), D)
    assert (sol.status, sol.rounds) == ("equivalent", 1)
    assert ad_exp(sol.X.value, gamma_p, D).value == gamma.value


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


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_bch_cases())
def test_bch_series_matches_the_dynkin_sum(case):
    X, Y, D = case
    assert bch(X, Y, D).value == _dynkin_reference(X, Y, D)
    assert bch(Y, X, D).value == _dynkin_reference(Y, X, D)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_bch_cases((0, 0, 1)))
def test_bch_series_matches_the_dynkin_sum_under_base_variables(case):
    X, Y, D = case
    assert bch(X, Y, D).value == _dynkin_reference(X, Y, D)
    assert bch(Y, X, D).value == _dynkin_reference(Y, X, D)


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
        out.append(json.dumps(formal_linearize(pi, 4).to_json_obj(), sort_keys=True))
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


def _check_then_solve(pi_lin, Z, base_degree_cap=8):
    """``homotopy_solve`` with the cocycle check before the solve: status and X."""
    if Z.value.is_zero():
        return "solved", PolyMVF.zero(pi_lin.nvars, 1, pi_lin.weights)
    if Z.value.grade != 2:
        raise ValueError("right-hand side must be a bivector")
    if not schouten(pi_lin, Z.value).is_zero():
        raise ValueError("right-hand side is not a cocycle")
    basis = graded_basis(pi_lin.nvars, 1, Z.l, pi_lin.weights, base_degree_cap)
    sol, _ = formal._solve_bracket_equation(pi_lin, Z.value, basis)
    return ("obstructed", None) if sol is None else ("solved", sol)


_COCYCLE_ALGEBRAS = {
    "so3": preset("so3"), "sl2": preset("sl2"), "su2": preset("su2"),
    "heisenberg": LieAlgebraSpec(3, {(1, 2, 3): 1}),
    "affine": LieAlgebraSpec(2, {(1, 2, 1): 1}),
}


@pytest.mark.parametrize("name", sorted(_COCYCLE_ALGEBRAS))
def test_homotopy_solve_matches_the_check_first_order(name):
    # the solve comes first: a solved round is certified, so [pi, X] = Z, and
    # then [pi, Z] = 1/2 [[pi, pi], X] = 0 for Poisson pi; only a failed solve
    # forms [pi, Z], to tell a non-cocycle (ValueError) from an obstruction
    pi = linear_poisson(_COCYCLE_ALGEBRAS[name])
    n, rng, seen = pi.nvars, random.Random(f"cocycle-{name}"), set()
    for _ in range(12):
        q = rng.randint(1, 3)
        if rng.random() < 0.5:
            Z = grade_component(schouten(pi, rand_homogeneous_vf(rng, n, q)), q)
        else:
            Z = grade_component(rand_mvf(rng, n, 2, max_deg=q, nterms=3), q)
        want = _outcome(lambda: _check_then_solve(pi, Z))
        with mock.patch.object(formal, "schouten", wraps=formal.schouten) as bracket:
            res = _outcome(lambda: homotopy_solve(pi, Z))
        if isinstance(want, type):
            assert res is want
        else:
            assert (res.status, res.X and res.X.value) == want
            if res.status == "solved":
                assert bracket.call_count == 0
        seen.add(want if isinstance(want, type) else want[0])
    # on the plane every bivector is a cocycle: no 3-vector is nonzero there
    assert seen >= ({"solved"} if n == 2 else {"solved", ValueError})


def test_homotopy_solve_solves_a_non_cocycle_of_a_non_poisson_pi():
    # with [pi, pi] != 0 the image of [pi, .] holds non-cocycles: the solve
    # comes first, so such a Z gets its exact solution, not a ValueError
    pi = _broken_linear_bivector()
    X = PolyMVF(3, 1, {(1,): parse_poly("x1^2", 3)})
    Z = grade_component(schouten(pi, X), 2)
    assert Z.value == schouten(pi, X) and not schouten(pi, Z.value).is_zero()
    res = homotopy_solve(pi, Z)
    assert res.status == "solved" and schouten(pi, res.X.value) == Z.value


def test_mc_equivalence_constructed_pair(pi_so3):
    rng = random.Random(33)
    D = 4
    for _ in range(3):
        X0 = rand_homogeneous_vf(rng, 3, 2)
        gamma = ad_exp(X0, pi_so3, D)
        sol = mc_equivalence(gamma, FilteredJet(pi_so3, D), D)
        assert sol.status == "equivalent"
        assert ad_exp(sol.X, pi_so3, D).value == gamma.value


@pytest.mark.parametrize("D, rounds", [(2, 1), (3, 2), (4, 3)])
def test_one_round_reuses_the_loops_ad_exp(pi_so3, D, rounds):
    # each round measures the composed gauge with one ad_exp(X, gamma', D),
    # and the last of them is the check that the returned X gauges gamma' to gamma
    X0 = rand_homogeneous_vf(random.Random(36), 3, 2)
    gamma = ad_exp(X0, pi_so3, D)
    with mock.patch.object(formal, "ad_exp", wraps=formal.ad_exp) as spy, \
            mock.patch.object(formal, "bch", wraps=formal.bch) as compose:
        sol = mc_equivalence(gamma, FilteredJet(pi_so3, D), D)
    assert sol.status == "equivalent" and sol.rounds == rounds
    assert spy.call_count == compose.call_count == rounds
    assert ad_exp(sol.X, pi_so3, D).value == gamma.value


def test_the_gauge_path_makes_no_solver_fractions(tmp_path, monkeypatch):
    # the so3 jet's three gauge rounds read each solve's integers as they were
    # lifted, and the field is read and written from its numerators: no solver
    # vector becomes Fractions, and the run makes only bch's few
    exact_verbs.write_inputs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = ["linearize", "so3_jet.json", "--truncate", "4", "--format", "json"]
    with mock.patch.object(polyalg, "_fraction_vector", wraps=polyalg._fraction_vector) as vec, \
            exact_verbs.fractions_made() as made, contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert vec.call_count == 0 and made[0] <= exact_verbs.SO3_JET_FRACTIONS
    assert json.loads(out.getvalue())["X"] == exact_verbs.SO3_JET_GAUGE


def test_deep_linearize_brackets_polynomially_in_bch():
    # the so3 structure times 1 + |x|^2 at order 20 takes 4 rounds; Dynkin's form,
    # summed word by word, formed 2133 brackets inside bch here
    pi, counts = PolyMVF.from_json_obj(exact_verbs.INPUTS["so3_cubic"]), []

    def counted_bch(X, Y, D):
        with mock.patch.object(formal, "schouten", wraps=formal.schouten) as bracket:
            Z = bch(X, Y, D)
        counts.append(bracket.call_count)
        return Z

    with mock.patch.object(formal, "bch", counted_bch):
        sol = formal_linearize(pi, 20)
    assert (sol.status, sol.rounds, len(counts)) == ("equivalent", 4, 4)
    assert sum(counts) <= 100


def test_composed_gauge_is_reverified(pi_so3, monkeypatch):
    # a composition that keeps only the last round's X_k must be caught: the
    # round measures that X_k alone, whose gauge leaves grade 2 standing
    D = 4
    gamma = ad_exp(rand_homogeneous_vf(random.Random(36), 3, 2), pi_so3, D)
    monkeypatch.setattr(formal, "bch", lambda X, Y, D: X)
    with pytest.raises(RuntimeError, match="gauge round did not raise the order"):
        mc_equivalence(gamma, FilteredJet(pi_so3, D), D)


def _two_state_gauge(gamma, gamma_p, D):
    """The gauge recursion with two states, as (rounds, X) for an equivalent pair:
    gamma' pushed forward by each round's X_q, and the X_q composed by ``bch`` beside it."""
    pi_lin = grade_component(gamma.value, 1).value
    current, X, rounds = gamma_p, FilteredJet(PolyMVF.zero(3, 1), D), 0
    diff = current.value - gamma.value
    while not diff.is_zero():
        q, rounds = diff.min_grade(), rounds + 1
        X_q = homotopy_solve(pi_lin, grade_component(diff, q)).X.value
        current = ad_exp(X_q, current, D)
        X = bch(FilteredJet(X_q, D), X, D)
        diff = current.value - gamma.value
        assert order_of(diff) > q - 1
    return rounds, X.value


@pytest.mark.parametrize("name", ["so3", "sl2", "su2"])
def test_one_state_loop_matches_the_two_state_recursion(name):
    pi_lin = linear_poisson(preset(name))
    rng = random.Random(f"two-state {name}")
    seen = set()
    for D in (2, 3, 4):
        for _ in range(3):
            grades = rng.choice([(2,), (3,), (2, 3)])
            X0 = sum((rand_homogeneous_vf(rng, 3, g) for g in grades), PolyMVF.zero(3, 1))
            gamma = ad_exp(X0, pi_lin, D)
            sol = mc_equivalence(gamma, FilteredJet(pi_lin, D), D)
            rounds, X = _two_state_gauge(gamma, FilteredJet(pi_lin, D), D)
            assert (sol.status, sol.rounds, sol.X.value) == ("equivalent", rounds, X)
            seen.add(rounds)
    assert seen >= {1, 2, 3}


def test_mc_equivalence_obstruction_on_plane():
    # with vanishing linear part no gauge can remove a quadratic term
    n = 2
    gamma = FilteredJet(PolyMVF(n, 2, {(1, 2): parse_poly("x1^2", n)}), 4)
    gamma_p = FilteredJet(PolyMVF.zero(n, 2), 4)
    with _spied_solve() as (solve, rref, mod_p):
        sol = mc_equivalence(gamma_p, gamma, 4)
    assert sol.status == "obstructed"
    _assert_certificate(solve.call_args, sol.certificate)
    assert mod_p.call_count == rref.call_count > 0
    assert sol.degree == 2
    assert not sol.cochain.value.is_zero()
    obj = json.loads(json.dumps(sol.to_json_obj(), sort_keys=True))
    assert obj["status"] == "obstructed" and obj["degree"] == 2


def test_mc_equivalence_rejects_non_mc():
    bad = _broken_linear_bivector()
    assert not schouten(bad, bad).is_zero()
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        mc_equivalence(FilteredJet(bad, 3), FilteredJet(bad, 3), 3)


_HEISENBERG = LieAlgebraSpec(3, {(1, 2, 3): 1})
# the affine algebra of the line, [e1, e2] = e2, plus a central e3
_AFFINE_PLUS_R = LieAlgebraSpec(3, {(1, 2, 2): 1})


def _perturbed_jet(rng, pi_lin):
    """(D, gamma): the D-jet ad_exp(X0, pi_lin, D) for a drawn quadratic X0, D in
    2..4, plus a drawn bivector of one grade g in 2..D: one or two monomials, or
    [pi_lin, Y] for a vector field Y of grade g, a coboundary."""
    D = rng.randint(2, 4)
    gamma = ad_exp(rand_homogeneous_vf(rng, 3, 2, nterms=1), pi_lin, D).value
    g = rng.randint(2, D)
    if rng.random() < 0.25:
        return D, gamma + schouten(pi_lin, rand_homogeneous_vf(rng, 3, g, nterms=1))
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0, 0, 0]
        for _ in range(g):
            exps[rng.randrange(3)] += 1
        poly = terms.setdefault(rng.choice([(1, 2), (1, 3), (2, 3)]), {})
        poly[tuple(exps)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return D, gamma + PolyMVF(3, 2, {legs: Poly(3, t) for legs, t in terms.items()})


def _gauge_outcome(call):
    """A gauge answer as comparable data, or the text of its refusal."""
    try:
        sol = call()
    except ValueError as e:
        return str(e)
    return (sol.status, sol.rounds, sol.degree, sol.X and sol.X.value,
            sol.cochain, sol.certificate)


@pytest.mark.parametrize("spec, outcomes", [
    (preset("so3"), {"refused", "equivalent"}),
    (preset("sl2"), {"refused", "equivalent"}),
    (_HEISENBERG, {"refused", "equivalent", "obstructed"}),
    (_AFFINE_PLUS_R, {"refused", "equivalent", "obstructed"}),
], ids=["so3", "sl2", "heisenberg", "affine+R"])
def test_a_perturbed_jet_is_refused_exactly_when_it_is_not_maurer_cartan(spec, outcomes):
    # gamma is checked only when the answer is not a verified equivalence: the
    # refusal must come exactly when the test's own [gamma, gamma] has a piece
    # of grade <= D, and any other answer must be the one the gauge loop gives
    # with both checks made first
    pi_lin = linear_poisson(spec)
    rng = random.Random(f"perturbed jets {spec.dim} {sorted(spec.C.items())}")
    seen = set()
    for _ in range(60):
        D, gamma = _perturbed_jet(rng, pi_lin)
        jet, jet_p = FilteredJet(gamma, D), FilteredJet(pi_lin, D)
        defect = truncate_jet(schouten(gamma, gamma), D)
        if defect.is_zero():
            expected = _gauge_outcome(lambda: formal._gauge_loop(jet, jet_p, D, 8))
            seen.add(expected[0])
        else:
            expected = (f"gamma is not Maurer-Cartan mod grade {D}: "
                        f"[gamma,gamma] has grade-{defect.min_grade()} defect")
            seen.add("refused")
        assert _gauge_outcome(lambda: mc_equivalence(jet, jet_p, D)) == expected
        assert _gauge_outcome(lambda: formal_linearize(gamma, D)) == expected
    assert seen == outcomes  # so3 and sl2 have H^2 = 0: no jet of theirs is obstructed


@contextlib.contextmanager
def _self_brackets():
    """The first arguments of the ``schouten`` calls that bracket a field with itself,
    from ``formal`` (the Maurer-Cartan checks) and ``poisson`` (``check_poisson``)."""
    calls = []

    def spy(W, V, *args, **kwargs):
        if W == V:
            calls.append(W)
        return multivector.schouten(W, V, *args, **kwargs)

    with mock.patch.object(formal, "schouten", spy), mock.patch.object(poisson, "schouten", spy):
        yield calls


def test_linearize_brackets_gamma_with_itself_only_when_it_is_not_equivalent(pi_so3):
    # an equivalence proves [gamma, gamma] = 0, and check_poisson has bracketed
    # pi_lin with itself: neither self-bracket is formed again
    D = 4
    gamma = ad_exp(rand_homogeneous_vf(random.Random(36), 3, 2), pi_so3, D).value
    with _self_brackets() as calls:
        sol = formal_linearize(gamma, D)
    assert sol.status == "equivalent" and sol.rounds == 3
    assert calls == [pi_so3]
    # mc_equivalence checks gamma' once, and gamma not at all
    with _self_brackets() as calls:
        assert mc_equivalence(FilteredJet(gamma, D), FilteredJet(pi_so3, D), D) == sol
    assert calls == [pi_so3]
    # an obstruction proves nothing about gamma, which is checked before it is returned
    pi_lin = linear_poisson(_HEISENBERG)
    gamma = pi_lin + PolyMVF(3, 2, {(1, 2): parse_poly("x1^2", 3)})
    with _self_brackets() as calls:
        sol = formal_linearize(gamma, 3)
    assert sol.status == "obstructed" and sol.degree == 2
    assert calls == [pi_lin, gamma]


def test_gamma_keeps_its_precedence_over_gamma_p():
    # both fail their checks: gamma's error comes first, as when gamma was checked first
    bad = _broken_linear_bivector()
    with pytest.raises(ValueError, match=r"^gamma is not Maurer-Cartan"):
        mc_equivalence(FilteredJet(bad, 3), FilteredJet(bad + bad, 3), 3)
    # only gamma' fails: its own error
    gamma = ad_exp(PolyMVF(3, 1, {(1,): parse_poly("x2^2", 3)}), linear_poisson(preset("so3")), 3)
    with pytest.raises(ValueError, match=r"^gamma' is not Maurer-Cartan"):
        mc_equivalence(gamma, FilteredJet(bad, 3), 3)
    # a grade-0 part: gamma is not Maurer-Cartan and gamma' is, and the loop's own
    # refusal (a right-hand side that is no cocycle) gives way to gamma's error
    gamma_p = PolyMVF(3, 2, {(1, 2): parse_poly("1 + x3", 3)})
    gamma = gamma_p + PolyMVF(3, 2, {(1, 3): parse_poly("x1^2", 3)})
    with pytest.raises(ValueError, match="not a cocycle"):
        formal._gauge_loop(FilteredJet(gamma, 3), FilteredJet(gamma_p, 3), 3, 8)
    with pytest.raises(ValueError, match=r"^gamma is not Maurer-Cartan mod grade 3: "
                                         r"\[gamma,gamma\] has grade-1 defect$"):
        mc_equivalence(FilteredJet(gamma, 3), FilteredJet(gamma_p, 3), 3)
    # a grade-0 part and an equivalence: a verified gauge does not prove
    # [gamma, gamma] = 0 there, so gamma is bracketed with itself, once
    gamma_p = PolyMVF(2, 2, {(1, 2): parse_poly("1 - x1 + 2*x2", 2)})
    gamma = ad_exp(PolyMVF(2, 1, {(1,): parse_poly("3*x2^2", 2)}), gamma_p, 3)
    with _self_brackets() as calls:
        sol = mc_equivalence(gamma, FilteredJet(gamma_p, 3), 3)
    assert (sol.status, sol.rounds) == ("equivalent", 1)
    assert calls.count(gamma.value) == 1 and calls.count(gamma_p) == 1


def test_gauge_solution_json(pi_so3):
    sol = mc_equivalence(FilteredJet(pi_so3, 3), FilteredJet(pi_so3, 3), 3)
    obj = json.loads(json.dumps(sol.to_json_obj(), sort_keys=True))
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


def test_prolong_step_refuses_a_grade_0_part():
    # in full, the grade-1 Jacobiator 2*x1 d1^d2^d3 is an obstruction; the
    # 1-jet drops the grade-2 part that the constant brackets into grade 1
    pi = PolyMVF(3, 2, {(1, 2): parse_poly("1", 3), (1, 3): parse_poly("x3^2", 3),
                        (2, 3): parse_poly("x1*x2", 3)})
    assert grade_component(schouten(pi, pi), 1).value == PolyMVF(
        3, 3, {(1, 2, 3): parse_poly("2*x1", 3)})
    for m in (1, 2):
        with pytest.raises(ValueError, match="grade-0"):
            prolong_step(FilteredJet(pi, m), m)
    with pytest.raises(ValueError, match="grade-0"):
        prolong_step(PolyMVF(3, 2, {(2, 3): parse_poly("1", 3)}, weights=(0, 1, 1)), 1)


def test_prolong_obstruction_certificate():
    # weighted fixture where no fiber-ideal correction can repair grade 4;
    # at scale 2/3 the bracket rows are integers over the denominator 3
    n = 3
    for scale in (1, Fraction(2, 3)):
        pi = PolyMVF(n, 2, {(1, 2): parse_poly("x3", n),
                            (1, 3): parse_poly("x1*x3", n)},
                     weights=(0, 0, 1)) * scale
        jac = schouten(pi, pi)
        m = jac.min_grade()
        with _spied_solve() as (solve, rref, mod_p):
            res = prolong_step(FilteredJet(pi, m), m, base_degree_cap=4)
        assert res.status == "obstructed"
        assert not res.obstruction.value.is_zero()
        _assert_certificate(solve.call_args, res.certificate)
        assert mod_p.call_count == rref.call_count > 0


def test_prolong_obstruction_can_be_an_artifact_of_the_cap():
    # base variables x1, x2: the bases stop at base_degree_cap, and the one
    # correction x2^2 x3^2 d2^d3 has base degree 2, so caps 0 and 1 certify an
    # obstruction that cap 2 solves
    pi = PolyMVF(3, 2, {(1, 2): parse_poly("-x1^2*x2^2*x3^2 + 2*x1*x2^2*x3", 3),
                        (1, 3): parse_poly("-x2^2", 3)}, weights=(0, 0, 1))
    for cap in (0, 1):
        with _spied_solve() as (solve, _, _):
            res = prolong_step(FilteredJet(pi, 3), 3, base_degree_cap=cap)
        assert res.status == "obstructed" and res.eta is None
        assert res.obstruction.l == 3 and not res.obstruction.value.is_zero()
        _assert_certificate(solve.call_args, res.certificate)
    res = prolong_step(FilteredJet(pi, 3), 3, base_degree_cap=2)
    assert res.status == "solved"
    assert res.eta == PolyMVF(3, 2, {(2, 3): parse_poly("x2^2*x3^2", 3)}, weights=(0, 0, 1))
    jac = schouten(pi + res.eta, pi + res.eta, max_grade=3)
    assert jac.is_zero()


def test_prolong_obstruction_without_a_certificate():
    # the linear solve succeeds at every cap, but the correction's own bracket
    # survives in grade 3: obstructed, with no certificate.  Up to grade m,
    # [pi + eta, pi + eta] = [eta, eta], which is all prolong_step brackets
    pi = PolyMVF(4, 2, {(1, 2): parse_poly("x4", 4), (1, 3): parse_poly("x1*x2 + 2*x4", 4),
                        (1, 4): parse_poly("-2*x1*x2", 4)}, weights=(0, 1, 1, 1))
    solve, solved = formal._solve_bracket_equation, []

    def spy(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    for cap in range(9):
        with mock.patch.object(formal, "_solve_bracket_equation", spy):
            res = prolong_step(FilteredJet(pi, 3), 3, base_degree_cap=cap)
        assert (res.status, res.eta, res.certificate) == ("obstructed", None, None)
        assert res.obstruction == grade_component(schouten(pi, pi), 3)
        eta, witness = solved.pop()
        assert witness is None and not solved
        own = schouten(eta, eta, max_grade=3)
        assert not own.is_zero()
        assert own == truncate_jet(schouten(pi + eta, pi + eta), 3)


def test_bounded_bracket_rows_are_the_filtered_rows():
    # prolongation bounds the kernel at its grade instead of filtering the
    # rows: monomials of grades g and h bracket into grade g + h - 1, so the
    # bound forms exactly the rows of grade <= m and each of them in full
    rng = random.Random(23)
    for _ in range(400):
        weights = tuple(rng.randint(0, 1) for _ in range(3))
        pi = rand_mvf(rng, 3, 2).with_weights(weights)
        basis = graded_basis(3, rng.randint(1, 2), rng.randint(1, 3), weights, 2)
        m = rng.randint(0, 4)
        den, rows = decoded_rows(pi, basis)
        filtered = {key: row for key, row in rows.items() if _grade(weights, *key) <= m}
        assert decoded_rows(pi, basis, m) == (den, filtered)
