"""Lie algebra presets, validation, Killing classification, su(3) invariants."""

import dataclasses
import inspect
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import (LieAlgebraSpec, coadjoint_invariance_check,
                          killing_classify, linear_poisson, liealg, preset,
                          su3_invariants, validate, weyl_circle_sample)
from poissonforge.liealg import _su3_onb
from poissonforge.polyalg import Poly, parse_poly, solve_linear_exact


@pytest.mark.parametrize("name", ["so3", "su2", "sl2", "su3"])
def test_presets_validate(name):
    spec = validate(preset(name))
    assert spec.dim == (8 if name == "su3" else 3)


def test_validate_reports_offending_triple():
    spec = LieAlgebraSpec(dim=3, C={(1, 2, 1): Fraction(1),
                                    (1, 3, 3): Fraction(1)})
    with pytest.raises(ValueError, match="Jacobi identity fails"):
        validate(spec)


def test_validate_rejects_bad_keys():
    with pytest.raises(ValueError, match="bad structure-constant key"):
        validate(LieAlgebraSpec(dim=2, C={(2, 1, 1): Fraction(1)}))


def test_reversed_key_table_is_refused():
    # so(3) with [e1, e2] = e3 stored under the reversed key (2, 1, 3): taken
    # as is, `c` reads [e1, e2] as 0 and killing_classify calls so(3) solvable
    with pytest.raises(ValueError, match="bad structure-constant key"):
        LieAlgebraSpec(3, {(2, 1, 3): Fraction(-1), (2, 3, 1): Fraction(1),
                           (1, 3, 2): Fraction(-1)})


@pytest.mark.parametrize("value", [0.5, 2.0, True, None], ids=["0.5", "2.0", "True", "None"])
def test_built_table_values_must_be_exact(value):
    # a float once surfaced only later, in linear_poisson or killing_classify
    with pytest.raises(ValueError, match=r"structure constant \(1, 2, 3\)"):
        LieAlgebraSpec(3, {(1, 2, 3): value, (2, 3, 1): 1, (1, 3, 2): -1})


def test_built_table_values_are_stored_as_fractions():
    spec = LieAlgebraSpec(3, {(1, 2, 3): 1, (2, 3, 1): "2/2", (1, 3, 2): Fraction(-1)})
    assert all(type(v) is Fraction for v in spec.C.values())
    assert spec.C == preset("so3").C
    assert killing_classify(spec) == killing_classify(preset("so3"))


def test_validate_is_the_jacobi_check_alone():
    assert list(inspect.signature(validate).parameters) == ["spec"]
    assert [f.name for f in dataclasses.fields(LieAlgebraSpec)] == ["dim", "C"]


def test_presets_are_built_without_a_bracket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("preset brackets its literal table")

    monkeypatch.setattr(liealg, "schouten", refuse)
    assert [preset(name).dim for name in ("so3", "su2", "sl2", "su3")] == [3, 3, 3, 8]


def _well_formed(spec):
    n = spec.dim
    return all(type(key) is tuple and len(key) == 3 and all(type(x) is int for x in key)
               and 1 <= key[0] < key[1] <= n and 1 <= key[2] <= n for key in spec.C)


_FAULTS = [None, "conflict", "diagonal", "range", "bool"]


def _valid_keys(dim):
    idx = st.integers(1, dim)
    return st.tuples(idx, idx, idx).filter(lambda key: key[0] < key[1])


@st.composite
def raw_tables(draw):
    """A JSON table object and the fault planted in it, if any.

    Its valid entries come as written, reversed with the sign flipped, or
    twice, with a zero diagonal entry now and then.  The fault is an entry
    that conflicts with another, a nonzero diagonal entry, an index out of
    range or a bool."""
    dim = draw(st.integers(2, 4))
    entries = []
    for (i, j, k), v in draw(st.dictionaries(_valid_keys(dim), st.integers(-2, 2),
                                             max_size=4)).items():
        e = ({"i": j, "j": i, "k": k, "value": f"{-v}/1"} if draw(st.booleans())
             else {"i": i, "j": j, "k": k, "value": v})
        entries += [e] * draw(st.integers(1, 2))
    if draw(st.booleans()):
        i = draw(st.integers(1, dim))
        entries.append({"i": i, "j": i, "k": draw(st.integers(1, dim)), "value": 0})
    fault = draw(st.sampled_from(_FAULTS))
    i, j, k = draw(_valid_keys(dim))
    e = {"i": i, "j": j, "k": k, "value": 1}
    entries += {
        None: [],
        "conflict": [e, {**e, "value": 2}],
        "diagonal": [{**e, "j": i}],
        "range": [{**e, draw(st.sampled_from("ijk")): draw(st.sampled_from([-1, 0, dim + 1]))}],
        "bool": [{**e, draw(st.sampled_from(["i", "j", "k", "value"])): draw(st.booleans())}],
    }[fault]
    return {"dim": dim, "C": draw(st.permutations(entries))}, fault


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(raw_tables())
def test_json_tables_come_out_well_formed_or_refused(case):
    obj, fault = case
    if fault:
        with pytest.raises(ValueError):
            LieAlgebraSpec.from_json_obj(obj)
        return
    spec = LieAlgebraSpec.from_json_obj(obj)
    assert _well_formed(spec)
    for e in obj["C"]:
        assert spec.c(e["i"], e["j"], e["k"]) == Fraction(e["value"])


@st.composite
def built_tables(draw):
    """A key dict built in code and the bad key planted in it, if any: a
    reversed, diagonal, out-of-range, bool or wrong-length key."""
    dim = draw(st.integers(2, 4))
    C = draw(st.dictionaries(_valid_keys(dim), st.integers(-2, 2).map(Fraction), max_size=4))
    fault = draw(st.sampled_from([None, "reversed", "diagonal", "range", "bool", "length"]))
    if fault:
        i, j, k = draw(_valid_keys(dim))
        key = {"reversed": (j, i, k), "diagonal": (i, i, k),
               "range": (i, j, draw(st.sampled_from([-1, 0, dim + 1]))),
               "bool": (i, j, True) if k == 1 else (True, j, k), "length": (i, j)}[fault]
        C.pop(key, None)  # a bool key equal to an int key would not replace it
        C[key] = draw(st.integers(-2, 2).map(Fraction))
    return dim, C, fault


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(built_tables())
def test_built_tables_come_out_well_formed_or_refused(case):
    dim, C, fault = case
    if fault:
        with pytest.raises(ValueError, match="bad structure-constant key"):
            LieAlgebraSpec(dim, C)
        return
    assert _well_formed(LieAlgebraSpec(dim, C))


def test_structure_constant_accessor_antisymmetry():
    spec = preset("so3")
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert spec.c(i, j, k) == -spec.c(j, i, k)


def test_so3_constants():
    spec = preset("so3")
    assert spec.c(1, 2, 3) == 1
    assert spec.c(2, 3, 1) == 1
    assert spec.c(3, 1, 2) == 1


def test_su2_is_so3_up_to_sign_convention():
    so3, su2 = preset("so3"), preset("su2")
    # e_a -> -e_a is an isomorphism onto the epsilon table with opposite sign
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert su2.c(i, j, k) == -so3.c(i, j, k)


def test_json_round_trip():
    for name in ("so3", "sl2", "su3"):
        spec = preset(name)
        text = json.dumps(spec.to_json_obj(), sort_keys=True)
        back = LieAlgebraSpec.from_json_obj(json.loads(text))
        assert back.dim == spec.dim
        for key, val in spec.C.items():
            assert back.c(*key) == val
    obj = json.loads(json.dumps(preset("so3").to_json_obj(), sort_keys=True))
    assert obj["dim"] == 3
    assert {"i": 1, "j": 2, "k": 3, "value": "1"} in obj["C"]


def _matrix_basis(name):
    """The matrix basis each preset table is written in, in sympy."""
    I = sympy.I
    if name == "so3":  # rotation generators, (L_a)_bc = -eps_abc
        return [sympy.Matrix(3, 3, lambda b, c: -sympy.LeviCivita(a, b, c))
                for a in range(3)]
    if name == "su2":  # i * sigma_a / 2
        sigma = [sympy.Matrix([[0, 1], [1, 0]]), sympy.Matrix([[0, -I], [I, 0]]),
                 sympy.Matrix([[1, 0], [0, -1]])]
        return [I * s / 2 for s in sigma]
    if name == "sl2":  # (e, f, h)
        return [sympy.Matrix([[0, 1], [0, 0]]), sympy.Matrix([[0, 0], [1, 0]]),
                sympy.Matrix([[1, 0], [0, -1]])]

    def E(a, b):
        M = sympy.zeros(3, 3)
        M[a, b] = 1
        return M

    return [E(0, 1) - E(1, 0), I * (E(0, 1) + E(1, 0)),
            E(0, 2) - E(2, 0), I * (E(0, 2) + E(2, 0)),
            E(1, 2) - E(2, 1), I * (E(1, 2) + E(2, 1)),
            I * (E(0, 0) - E(1, 1)), I * (E(1, 1) - E(2, 2))]


def _real_coords(M):
    entries = [sympy.expand(v) for v in M]
    return [sympy.re(v) for v in entries] + [sympy.im(v) for v in entries]


def _table_from_matrices(mats):
    """Solve each commutator [M_i, M_j] in the basis: {(i, j, k): C^k_ij}."""
    A = sympy.Matrix([_real_coords(M) for M in mats]).T
    C = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            bracket = mats[i] * mats[j] - mats[j] * mats[i]
            x, free = A.gauss_jordan_solve(sympy.Matrix(_real_coords(bracket)))
            assert free.shape[0] == 0
            for k, v in enumerate(x):
                if v != 0:
                    C[(i + 1, j + 1, k + 1)] = Fraction(str(v))
    return C


@pytest.mark.parametrize("name", ["so3", "su2", "sl2", "su3"])
def test_preset_table_matches_its_matrix_basis(name):
    assert _table_from_matrices(_matrix_basis(name)) == preset(name).C


def _jacobi_oracle(spec):
    """The first failing Jacobi sum, found by the direct n^5 loop."""
    n = spec.dim
    basis = range(1, n + 1)
    for i in basis:
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                for l in basis:
                    s = Fraction(0)
                    for m in basis:
                        s += (spec.c(i, j, m) * spec.c(m, k, l)
                              + spec.c(j, k, m) * spec.c(m, i, l)
                              + spec.c(k, i, m) * spec.c(m, j, l))
                    if s != 0:
                        return (f"Jacobi identity fails on basis triple {(i, j, k)}"
                                f" in component {l} (defect {s})")
    return None


@st.composite
def sparse_tables(draw):
    n = draw(st.integers(2, 5))
    entry = st.tuples(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True),
                      st.integers(1, n),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    C = {}
    for pair, k, v in draw(st.lists(entry, max_size=5)):
        C[(min(pair), max(pair), k)] = v
    return LieAlgebraSpec(n, {key: v for key, v in C.items() if v})


@pytest.mark.parametrize("name", ["so3", "su2", "sl2", "su3"])
def test_jacobi_oracle_passes_presets(name):
    assert _jacobi_oracle(preset(name)) is None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(sparse_tables())
def test_validate_agrees_with_jacobi_oracle(spec):
    expected = _jacobi_oracle(spec)
    if expected is None:
        assert validate(spec) is spec
    else:
        with pytest.raises(ValueError) as info:
            validate(spec)
        assert str(info.value) == expected


def _random_invertible(rng, n):
    while True:
        P = sympy.Matrix(n, n, lambda a, b: rng.randint(-2, 2))
        if P.det() != 0:
            return P


def _rebased(spec, P):
    """The table in the basis e'_a = sum_i P[i, a] e_i: P^{-1} [P e_a, P e_b]."""
    n = spec.dim
    Pinv = P.inv()
    Pf = [[Fraction(str(P[r, c])) for c in range(n)] for r in range(n)]
    Pinvf = [[Fraction(str(Pinv[r, c])) for c in range(n)] for r in range(n)]
    C = {}
    for a in range(n):
        for b in range(a + 1, n):
            bracket = [Fraction(0)] * n
            for (i, j, k), v in spec.C.items():
                bracket[k - 1] += v * (Pf[i - 1][a] * Pf[j - 1][b]
                                       - Pf[j - 1][a] * Pf[i - 1][b])
            for m in range(n):
                v = sum(Pinvf[m][k] * bracket[k] for k in range(n))
                if v:
                    C[(a + 1, b + 1, m + 1)] = v
    return LieAlgebraSpec(n, C)


def _sympy_killing_verdict(spec):
    n = spec.dim
    ads = [sympy.Matrix(n, n, lambda k, j: sympy.Rational(str(spec.c(i, j + 1, k + 1))))
           for i in range(1, n + 1)]
    K = sympy.Matrix(n, n, lambda a, b: (ads[a] * ads[b]).trace())
    return {"semisimple": K.rank() == n, "compact_type": bool(K.is_negative_definite)}


class TestKilling:
    def test_so3_compact(self):
        assert killing_classify(preset("so3")) == {"semisimple": True,
                                                   "compact_type": True}

    def test_sl2_split(self):
        kc = killing_classify(preset("sl2"))
        assert kc["semisimple"] and not kc["compact_type"]

    def test_su3_compact(self):
        assert killing_classify(preset("su3")) == {"semisimple": True,
                                                   "compact_type": True}

    def test_abelian_degenerate(self):
        kc = killing_classify(LieAlgebraSpec(dim=2, C={}))
        assert not kc["semisimple"] and not kc["compact_type"]

    def test_solvable_degenerate(self):
        # [e1, e2] = e2: K = diag(1, 0)
        spec = validate(LieAlgebraSpec(dim=2, C={(1, 2, 2): Fraction(1)}))
        assert killing_classify(spec) == {"semisimple": False,
                                          "compact_type": False}
        assert killing_classify(spec) == _sympy_killing_verdict(spec)

    @pytest.mark.parametrize("name", ["so3", "sl2", "su3"])
    def test_verdict_survives_change_of_basis(self, name):
        spec = preset(name)
        verdict = killing_classify(spec)
        assert verdict == _sympy_killing_verdict(spec)
        rng = random.Random(name)
        for _ in range(2):
            rebased = validate(_rebased(spec, _random_invertible(rng, spec.dim)))
            assert killing_classify(rebased) == verdict
            assert _sympy_killing_verdict(rebased) == verdict

    def test_split_with_negative_diagonal(self):
        # sl2 in the basis e-f, 2e-f+h, e-2f+h: K(v, v) = -8 on every basis
        # vector, yet K is indefinite
        P = sympy.Matrix([[1, 2, 1], [-1, -1, -2], [0, 1, 1]])
        spec = validate(_rebased(preset("sl2"), P))
        verdict = {"semisimple": True, "compact_type": False}
        assert _sympy_killing_verdict(spec) == verdict
        assert killing_classify(spec) == verdict

    def test_ad_invariance(self):
        # K([x,y],z) + K(y,[x,z]) = 0, checked exactly on basis triples
        for name in ("so3", "sl2", "su3"):
            spec = preset(name)
            n = spec.dim
            ads = [spec.ad_matrix(i) for i in range(1, n + 1)]

            def K(a, b):
                return sum(ads[a][k][m] * ads[b][m][k]
                           for k in range(n) for m in range(n))

            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    for z in range(1, n + 1):
                        s = Fraction(0)
                        for m in range(1, n + 1):
                            s += spec.c(x, y, m) * K(m - 1, z - 1)
                            s += spec.c(x, z, m) * K(y - 1, m - 1)
                        assert s == 0


class TestSu3Invariants:
    def test_weyl_circle_exact_values(self):
        for r in (0.5, 1.0, 2.0):
            for k in range(24):
                theta = 2 * math.pi * k / 24
                s = weyl_circle_sample(r, theta)
                assert abs(s.q1 - r ** 2) < 1e-12
                assert abs(s.q2 - r ** 3 * math.sin(3 * theta)) < 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            su3_invariants(np.zeros(7))
        with pytest.raises(ValueError):
            weyl_circle_sample(-1.0, 0.0)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_weyl_circle_needs_a_finite_positive_radius(self, r):
        with pytest.raises(ValueError, match="radius"):
            weyl_circle_sample(r, 0.0)

    def test_discriminant_membership(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p1, p2 = su3_invariants(rng.normal(size=8))
            assert p1 ** 3 >= p2 ** 2 - 1e-9

    def test_conjugation_flips_cubic_invariant(self):
        onb = _su3_onb()
        gram = -np.real(np.einsum("aij,bji->ab", onb, onb))
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)
        rng = np.random.default_rng(24)
        for _ in range(50):
            xi = rng.normal(size=8)
            A = np.tensordot(xi, onb, axes=(0, 0))
            xi_conj = np.real(-np.einsum("aij,ji->a", onb, np.conj(A)))
            p1, p2 = su3_invariants(xi)
            q1, q2 = su3_invariants(xi_conj)
            assert abs(p1 - q1) < 1e-10
            assert abs(p2 + q2) < 1e-10


class TestCoadjointFlows:
    def _killing_dual_quadratic(self, spec):
        """Casimir xi -> K^{-1}(xi, xi) in structure-constant coordinates."""
        n = spec.dim
        ads = [spec.ad_matrix(i) for i in range(1, n + 1)]
        K = [[sum(ads[a][k][m] * ads[b][m][k]
                  for k in range(n) for m in range(n))
              for b in range(n)] for a in range(n)]
        terms = {}
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            col = solve_linear_exact(K, e).particular
            for i in range(n):
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                key = tuple(exps)
                terms[key] = terms.get(key, Fraction(0)) + col[i]
        return Poly(n, {k: v for k, v in terms.items() if v})

    def test_so3_casimir_invariant(self):
        spec = preset("so3")
        f = parse_poly("x1^2 + x2^2 + x3^2", 3)
        assert coadjoint_invariance_check(spec, f, 20, seed=25) < 1e-12

    def test_so3_coordinate_not_invariant(self):
        spec = preset("so3")
        f = parse_poly("x1", 3)
        assert coadjoint_invariance_check(spec, f, 20, seed=25) > 1e-2

    def test_su3_killing_casimir_invariant(self, su3_spec):
        f = self._killing_dual_quadratic(su3_spec)
        assert coadjoint_invariance_check(su3_spec, f, 10, seed=26) < 1e-7


def test_su3_casimir_basis_to_cubic(su3_spec):
    from poissonforge import casimir_basis
    pi = linear_poisson(su3_spec)
    basis = casimir_basis(pi, 3)
    # constants, the quadratic Casimir, and the cubic Casimir
    assert [p.degree() for p in sorted(basis, key=lambda p: p.degree())] \
        == [0, 2, 3]
    for p in basis:
        if p.degree() > 0:
            assert coadjoint_invariance_check(su3_spec, p, 5, seed=27) < 1e-7


def test_linear_poisson_coefficients(pi_so3):
    assert pi_so3.terms[(1, 2)] == parse_poly("x3", 3)
    assert pi_so3.terms[(2, 3)] == parse_poly("x1", 3)
    assert pi_so3.terms[(1, 3)] == parse_poly("-x2", 3)
