"""Poisson-specific operations: checks, brackets, Casimirs, cohomology."""

import hashlib
import importlib.util
import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poissonforge import (PolyMVF, ad_exp, casimir_basis, check_poisson,
                          cohomology_dims, formal_linearize, hamiltonian_vf,
                          linear_poisson, poisson_bracket, preset, schouten, sharp)
from poissonforge import poisson, polyalg
from poissonforge.poisson import _bracket_rows, basis_size, graded_basis
from poissonforge.liealg import LieAlgebraSpec
from poissonforge.polyalg import Poly, exact_rank, parse_poly

from conftest import rand_mvf, rand_poly


def test_check_poisson_so3(pi_so3):
    res = check_poisson(pi_so3)
    assert res.is_poisson
    assert res.witness.is_zero()


def test_check_poisson_failure_witness():
    # [e1,e2]=e1, [e1,e3]=e3 fails Jacobi: [[e1,e2],e3] + cyc != 0
    spec = LieAlgebraSpec(dim=3, C={(1, 2, 1): Fraction(1),
                                    (1, 3, 3): Fraction(1)})
    pi = linear_poisson(spec)
    res = check_poisson(pi)
    assert not res.is_poisson
    assert not res.witness.is_zero()
    assert res.witness == schouten(pi, pi)


def test_every_plane_bivector_is_poisson():
    rng = random.Random(17)
    for _ in range(25):
        pi = PolyMVF(2, 2, {(1, 2): rand_poly(rng, 2, max_deg=4, nterms=3)})
        assert check_poisson(pi).is_poisson


def test_sharp_and_hamiltonian_vf(pi_so3):
    # H_{x3} = pi^sharp d x3 rotates the (x1, x2) plane
    f = parse_poly("x3", 3)
    H = hamiltonian_vf(pi_so3, f)
    assert H == PolyMVF(3, 1, {(1,): parse_poly("x2", 3),
                               (2,): parse_poly("-x1", 3)})
    # sharp of a covector with polynomial coefficients
    assert sharp(pi_so3, [f.diff(1), f.diff(2), f.diff(3)]) == H


@pytest.mark.parametrize("alpha", [0, 4, -1, True])
def test_sharp_rejects_covector_index_outside_variables(pi_so3, alpha):
    with pytest.raises(ValueError, match="1..3"):
        sharp(pi_so3, alpha)


def test_poisson_bracket_structure_constants(pi_so3):
    x1, x2, x3 = (parse_poly(s, 3) for s in ("x1", "x2", "x3"))
    assert poisson_bracket(pi_so3, x1, x2) == x3
    assert poisson_bracket(pi_so3, x2, x3) == x1
    assert poisson_bracket(pi_so3, x3, x1) == x2


def test_poisson_bracket_laws(pi_so3):
    rng = random.Random(18)
    for _ in range(40):
        f, g, h = (rand_poly(rng, 3, max_deg=2, nterms=2) for _ in range(3))
        pb = lambda a, b: poisson_bracket(pi_so3, a, b)
        assert pb(f, g) == -pb(g, f)
        assert pb(f, g * h) == pb(f, g) * h + g * pb(f, h)
        assert pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g)) \
            == Poly.zero(3)


def test_hamiltonian_fields_preserve_casimir(pi_so3):
    c = parse_poly("x1^2 + x2^2 + x3^2", 3)
    rng = random.Random(19)
    for _ in range(20):
        f = rand_poly(rng, 3, max_deg=2, nterms=2)
        assert poisson_bracket(pi_so3, f, c).is_zero()


def test_differential_squares_to_zero(pi_so3):
    rng = random.Random(20)
    for _ in range(30):
        u = rand_mvf(rng, 3, rng.randint(0, 2))
        assert schouten(pi_so3, schouten(pi_so3, u)).is_zero()


def _pi_of(C: Poly) -> PolyMVF:
    """pi_C = dC/dx3 d1^d2 - dC/dx2 d1^d3 + dC/dx1 d2^d3 on R^3: Poisson, with Casimir C."""
    return PolyMVF(3, 2, {(1, 2): C.diff(3), (1, 3): -C.diff(2), (2, 3): C.diff(1)})


_XS = sympy.symbols("x1:4")
# the monomials of degree <= 3 in x1, x2, x3, as exponent vectors
_CUBIC_EXPS = [e for d in range(4) for e in itertools.product(range(d + 1), repeat=3)
               if sum(e) == d]


def _sympy_casimir_nullity(C) -> int:
    """dim {f : deg f <= 3, {f, x_k} = 0 for k = 1, 2, 3} under pi_C, for a
    sympy polynomial C: the bracket is written out in sympy, with no package code."""
    grad = [sympy.diff(C, x) for x in _XS]
    pi = {(0, 1): grad[2], (0, 2): -grad[1], (1, 2): grad[0]}
    cs = sympy.symbols(f"c0:{len(_CUBIC_EXPS)}")
    f = sum(c * sympy.Mul(*(x ** a for x, a in zip(_XS, e))) for c, e in zip(cs, _CUBIC_EXPS))
    df = [sympy.diff(f, x) for x in _XS]
    eqs = []
    for k in range(3):
        # {f, x_k} = sum_{i<j} pi_ij (d_i f d_j x_k - d_j f d_i x_k), d_j x_k = [j == k]
        bracket = sum(p * (df[i] * int(j == k) - df[j] * int(i == k))
                      for (i, j), p in pi.items())
        eqs += sympy.Poly(sympy.expand(bracket), *_XS).coeffs()
    A, _ = sympy.linear_eq_to_matrix(eqs, cs)
    return len(cs) - A.rank()


class TestCasimirs:
    def test_so3(self, pi_so3):
        basis = casimir_basis(pi_so3, 2)
        assert len(basis) == 2
        assert Poly.constant(3, 1) in basis
        assert parse_poly("x1^2 + x2^2 + x3^2", 3) in [
            p * (1 / p.sorted_terms()[0][1]) for p in basis
            if p.degree() == 2]

    def test_sl2(self, pi_sl2):
        basis = casimir_basis(pi_sl2, 2)
        quads = [p for p in basis if p.degree() == 2]
        assert len(quads) == 1
        q = quads[0]
        # proportional to 4 x1 x2 + x3^2
        ref = parse_poly("4*x1*x2 + x3^2", 3)
        c = q.sorted_terms()[0][1] / ref.sorted_terms()[0][1]
        assert q == ref * c

    def test_zero_structure(self):
        pi = PolyMVF.zero(2, 2)
        basis = casimir_basis(pi, 1)
        assert len(basis) == 3  # 1, x1, x2


    def test_pinned_normalisation(self):
        # RREF kernels over descending-lex columns, as published
        sl2 = casimir_basis(linear_poisson(preset("sl2")), 4)
        assert [str(p) for p in sl2] == [
            "1",
            "4*x1*x2 + x3^2",
            "16*x1^2*x2^2 + 8*x1*x2*x3^2 + x3^4",
        ]
        su3 = casimir_basis(linear_poisson(preset("su3")), 3)
        assert [str(p) for p in su3] == [
            "1",
            "3/4*x1^2 + 3/4*x2^2 + 3/4*x3^2 + 3/4*x4^2 + 3/4*x5^2 + 3/4*x6^2 + x7^2 + "
            "x7*x8 + x8^2",
            "-9/8*x1^2*x7 - 9/4*x1^2*x8 - 27/8*x1*x3*x6 + 27/8*x1*x4*x5 - 9/8*x2^2*x7 "
            "- 9/4*x2^2*x8 - 27/8*x2*x3*x5 - 27/8*x2*x4*x6 - 9/8*x3^2*x7 + "
            "9/8*x3^2*x8 - 9/8*x4^2*x7 + 9/8*x4^2*x8 + 9/4*x5^2*x7 + 9/8*x5^2*x8 + "
            "9/4*x6^2*x7 + 9/8*x6^2*x8 - x7^3 - 3/2*x7^2*x8 + 3/2*x7*x8^2 + x8^3",
        ]

    def test_su3_degree_5_against_its_generators(self):
        # degree 5 is past every benchmark case.  The Casimirs of su(3) are
        # the polynomials in its generators of degree 2 and 3 (Chevalley),
        # so degree d holds one per (a, b) with 2a + 3b = d, and each one
        # Poisson-commutes with every coordinate; the hash pins the RREF
        # normalisation of all five
        pi = linear_poisson(preset("su3"))
        basis = casimir_basis(pi, 5)
        degrees = [{sum(e) for e in p.terms} for p in basis]
        assert all(len(d) == 1 for d in degrees)  # each one homogeneous
        assert [degrees.count({d}) for d in range(6)] == [
            sum(2 * a + 3 * b == d for a in range(3) for b in range(2)) for d in range(6)
        ] == [1, 0, 1, 1, 1, 1]
        for p in basis:
            for i in range(1, 9):
                assert poisson_bracket(pi, p, Poly.variable(8, i)).is_zero()
        assert hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest() == (
            "e76760ff77dae5f9353dbbc09d32380be4bee25c772d7c118a75f741f96e4610")

    def test_inhomogeneous_casimir(self):
        # C has parts of degree 2 and 3, so pi_C is inhomogeneous and so is
        # its Casimir C: a solve per degree finds neither part alone
        C = parse_poly("x1^2 + x2^2 + x3^2 + x3^3", 3)
        pi = _pi_of(C)
        basis = casimir_basis(pi, 3)
        assert len(basis) == 2 == _sympy_casimir_nullity(
            _XS[0] ** 2 + _XS[1] ** 2 + _XS[2] ** 2 + _XS[2] ** 3)
        for f in basis:
            for i in range(1, 4):
                assert poisson_bracket(pi, f, Poly.variable(3, i)).is_zero()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=len(_CUBIC_EXPS), max_size=len(_CUBIC_EXPS)))
    def test_inhomogeneous_casimir_is_in_the_span(self, coeffs):
        C = Poly(3, dict(zip(_CUBIC_EXPS, coeffs)))
        basis = casimir_basis(_pi_of(C), 3)
        rows = [[sympy.Rational(f.terms.get(e, 0)) for e in _CUBIC_EXPS] for f in basis]
        target = [0] + coeffs[1:]  # C - C(0); _CUBIC_EXPS starts at the constant
        assert sympy.Matrix(rows + [target]).rank() == sympy.Matrix(rows).rank()


class TestCohomology:
    def test_so3_quadratic_table(self, pi_so3):
        table = cohomology_dims(pi_so3, 2, 3)
        assert table.betti == {0: 1, 1: 0, 2: 0, 3: 1}
        assert table.dim_cochains == {0: 6, 1: 18, 2: 18, 3: 6}
        assert table.rank_d == {0: 5, 1: 13, 2: 5, 3: 0}

    @pytest.mark.parametrize("name, plan, poincare, gens", [
        ("so3", [(l, 3) for l in range(6)], {0: 1, 3: 1}, (2,)),
        ("sl2", [(l, 3) for l in range(6)], {0: 1, 3: 1}, (2,)),
        ("su2", [(l, 3) for l in range(6)], {0: 1, 3: 1}, (2,)),
        # the (l, k) = (2, 2) matrix is 2014 x 1008
        ("su3", [(1, 3), (2, 2)], {0: 1, 3: 1, 5: 1, 8: 1}, (2, 3)),
    ], ids=["so3", "sl2", "su2", "su3"])
    def test_hochschild_serre(self, name, plan, poincare, gens):
        # The complex is Chevalley-Eilenberg with coefficients in S(g), so
        # betti_k(l) = dim H^k(g) * dim Cas_l (Hochschild-Serre), where H(g)
        # has Poincare polynomial `poincare` and the Casimirs are freely
        # generated in the degrees `gens`.
        pi = linear_poisson(preset(name))
        for l, kmax in plan:
            cas = sum(1 for e in itertools.product(range(l + 1), repeat=len(gens))
                      if sum(a * g for a, g in zip(e, gens)) == l)
            table = cohomology_dims(pi, l, kmax)
            assert table.betti == {k: poincare.get(k, 0) * cas for k in range(kmax + 1)}

    @pytest.mark.parametrize("name, l, ks", [("so3", 2, range(2)), ("su3", 1, range(4))],
                             ids=["so3", "su3"])
    def test_emitted_matrices_square_to_zero(self, name, l, ks):
        # d o d = 0 from k to k + 1 to k + 2, on the matrices _bracket_rows emits
        # (the Chevalley-Eilenberg differential of g with coefficients in S(g))
        pi = linear_poisson(preset(name))
        n = pi.nvars

        def columns(k):
            """d on grade-l k-vectors: column c as {index in the (k+1)-basis: value}."""
            index = {key: r for r, key in enumerate(graded_basis(n, k + 1, l, pi.weights))}
            cols = {}
            for key, row in _bracket_rows(pi, graded_basis(n, k, l, pi.weights), True)[1].items():
                for c, v in row.items():
                    cols.setdefault(c, {})[index[key]] = v
            return cols

        for k in ks:
            first, second = columns(k), columns(k + 1)
            assert first and second
            for col in first.values():
                image = {}
                for r, v in col.items():
                    for s, w in second.get(r, {}).items():
                        image[s] = image.get(s, 0) + v * w
                assert not any(image.values())

    def test_rejects_weighted_vars(self, pi_so3):
        with pytest.raises(ValueError):
            cohomology_dims(pi_so3.with_weights((0, 1, 1)), 2, 3)

    def test_json_schema(self, pi_so3):
        obj = cohomology_dims(pi_so3, 2, 1).to_json_obj()
        assert obj["grade"] == 2
        assert obj["rows"][0] == {"k": 0, "dim": 6, "rank": 5, "betti": 1}


_FIRST_PRIME = 2**30 - 35


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of kernel lifts and of reductions at the exact solver's first prime."""
    counts = {"lifts": 0, "first_prime": 0}
    lift_kernel, rref_mod_p = polyalg._lift_kernel, polyalg._rref_mod_p

    def counted_lift_kernel(*args):
        counts["lifts"] += 1
        return lift_kernel(*args)

    def counted_rref_mod_p(rows, p):
        counts["first_prime"] += p == _FIRST_PRIME
        return rref_mod_p(rows, p)

    monkeypatch.setattr(polyalg, "_lift_kernel", counted_lift_kernel)
    monkeypatch.setattr(polyalg, "_rref_mod_p", counted_rref_mod_p)
    return counts


def _certified_table(counts, pi, l, kmax):
    """``cohomology_dims(pi, l, kmax)``, its ranks checked against ``exact_rank``
    of the same rows, and the number of lifts it took.  No matrix is reduced
    at the first prime twice."""
    counts.update(lifts=0, first_prime=0)
    table = cohomology_dims(pi, l, kmax)
    lifts, first_prime = counts["lifts"], counts["first_prime"]
    assert first_prime <= kmax + 1
    for k in range(kmax + 1):
        basis = graded_basis(pi.nvars, k, l, pi.weights)
        rows = list(_bracket_rows(pi, basis, True)[1].values())
        assert table.rank_d[k] == exact_rank(rows, ncols=len(basis)), (l, k)
    return table, lifts


def _ranks_workload_cohomology(workdir, monkeypatch):
    """(case id, pi, grade, kmax) of each cohomology case of the ranks benchmark, seeds 1-3."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    out = []
    for seed in (1, 2, 3):
        for case in workloads.ranks_cases(seed, workdir):
            verb, table_path, _, grade, _, kmax = case.argv[:6]
            if verb == "cohomology":
                with open(table_path, encoding="utf-8") as fh:
                    pi = linear_poisson(LieAlgebraSpec.from_json_obj(json.load(fh)))
                out.append((case.id, pi, int(grade), int(kmax)))
    return out


class TestCohomologyCertificate:
    """Ranks certified by the complex's exactness, and the fallback where that fails."""

    def test_ranks_workload_needs_no_lift(self, eliminations, tmp_path, monkeypatch):
        # semisimple algebras: H(g*) = H(g) (x) Cas, so every bound is tight
        cases = _ranks_workload_cohomology(str(tmp_path), monkeypatch)
        assert len(cases) == 60  # 20 per seed, beside one Casimir case
        for case_id, pi, l, kmax in cases:
            _, lifts = _certified_table(eliminations, pi, l, kmax)
            assert lifts == 0, case_id

    @pytest.mark.parametrize("spec, grades, trivial_betti, lifted", [
        # Heisenberg: dim H^k(h_{2m+1}) = C(2m, k) - C(2m, k - 2) for k <= m,
        # and Poincare duality above (Santharoubane, Canad. J. Math. 1983)
        (LieAlgebraSpec(3, {(1, 2, 3): 1}), range(4), [1, 2, 2, 1], True),
        (LieAlgebraSpec(5, {(1, 3, 5): 1, (2, 4, 5): 1}), range(3), [1, 4, 5, 5, 4, 1], True),
        # the affine algebra [e1, e2] = e2: H^1 = g / [g, g], and S(g)-valued
        # cohomology vanishes above grade 0, so its bounds are tight
        (LieAlgebraSpec(2, {(1, 2, 2): 1}), range(4), [1, 1, 0], False),
        # the zero bracket: d = 0 has no rows
        (LieAlgebraSpec(3, {}), range(4), [1, 3, 3, 1], False),
    ], ids=["heisenberg3", "heisenberg5", "affine2", "zero"])
    def test_non_semisimple_tables(self, eliminations, spec, grades, trivial_betti, lifted):
        pi = linear_poisson(spec)
        total_lifts = 0
        for l in grades:
            table, lifts = _certified_table(eliminations, pi, l, spec.dim)
            total_lifts += lifts
            if l == 0:
                assert list(table.betti.values()) == trivial_betti
        assert (total_lifts > 0) == lifted

    def test_rows_zero_at_the_first_prime(self, eliminations):
        # so(3) times the first prime: every row is 0 there, so each rank
        # with a nonzero row must come from the fallback, at later primes
        scaled = LieAlgebraSpec(3, {key: v * _FIRST_PRIME for key, v in preset("so3").C.items()})
        for l in range(4):
            table, lifts = _certified_table(eliminations, linear_poisson(scaled), l, 3)
            assert lifts > 0
            assert table == cohomology_dims(linear_poisson(preset("so3")), l, 3)


# (n, k, l, weights, base_degree_cap)
_BASIS_ARGS = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n + 1), st.integers(0, 5),
    st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n), st.integers(0, 3)))


def _recursive_basis(n, k, l, weights, base_degree_cap):
    """graded_basis as a generator that recurses once per variable."""
    def exponents(i, left):
        if i == n:
            if left == 0:
                yield ()
            return
        fiber = weights[i] == 1
        for e in range((left if fiber else base_degree_cap) + 1):
            for rest in exponents(i + 1, left - e if fiber else left):
                yield (e,) + rest

    out = []
    for legs in itertools.combinations(range(1, n + 1), k):
        fiber_deg = l - sum(1 for i in legs if weights[i - 1] == 0)
        if fiber_deg >= 0:
            out.extend((legs, exps) for exps in exponents(0, fiber_deg))
    return out


class TestBasisSize:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_BASIS_ARGS)
    def test_closed_form_counts_the_basis(self, args):
        assert basis_size(*args) == len(graded_basis(*args))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_BASIS_ARGS)
    def test_matches_the_recursive_generator(self, args):
        # the order too: RREF-canonical gauge fields depend on it
        assume(basis_size(*args) <= poisson.MAX_BASIS)
        assert graded_basis(*args) == _recursive_basis(*args)

    def test_all_ones_weights(self):
        # C(n, k) * C(n + l - 1, l): the su(3) (l, k) = (2, 2) and (1, 3) bases
        assert basis_size(8, 2, 2, [1] * 8) == 28 * 36 == 1008
        assert basis_size(8, 3, 1, [1] * 8) == 56 * 8 == 448

    def test_oversized_basis_is_refused_before_it_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("the basis was built")
        monkeypatch.setattr(poisson.itertools, "combinations", build)
        # C(3 + 70 - 1, 70) = 2556 monomials of degree 70 in 3 variables
        with pytest.raises(ValueError, match=f"bound of {poisson.MAX_BASIS}"):
            graded_basis(3, 0, 70, [1, 1, 1])


def test_readme_quick_start_pinned():
    pi = linear_poisson(preset("so3"))
    X = PolyMVF(3, 1, {(1,): parse_poly("x2*x3", 3)})
    sol = formal_linearize(ad_exp(X, pi, 4).value, 4)
    assert json.dumps(sol.to_json_obj(), sort_keys=True) == (
        '{"X": {"grade": 1, "nvars": 3, "terms": [{"indices": [1], "poly": "x2*x3"}], '
        '"weights": [1, 1, 1]}, "rounds": 1, "status": "equivalent"}')
