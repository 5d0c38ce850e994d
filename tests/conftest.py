"""Shared fixtures and random generators for the test suite."""

import itertools
import random
from fractions import Fraction

import pytest

from poissonforge import PolyMVF, linear_poisson, preset
from poissonforge.poisson import _bracket_rows
from poissonforge.polyalg import Poly


def sgn(e):
    """(-1)**e that stays an int for negative exponents."""
    return 1 if e % 2 == 0 else -1


def rand_poly(rng, nvars, max_deg=2, nterms=2, coeff_range=3):
    """Sparse random polynomial with small Fraction coefficients."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-coeff_range, coeff_range),
                     rng.choice([1, 1, 2]))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return Poly(nvars, {k: v for k, v in terms.items() if v})


def rand_mvf(rng, nvars, grade, max_deg=2, nterms=2):
    """Random multivector with one sparse polynomial per leg combination."""
    if grade == 0:
        return PolyMVF.from_function(rand_poly(rng, nvars, max_deg, nterms))
    terms = {}
    for idx in itertools.combinations(range(1, nvars + 1), grade):
        if rng.random() < 0.7:
            terms[idx] = rand_poly(rng, nvars, max_deg, nterms)
    return PolyMVF(nvars, grade, {k: v for k, v in terms.items()
                                  if not v.is_zero()})


def decoded_rows(pi, basis, max_grade=None):
    """``poisson._bracket_rows`` with its packed row keys decoded, as ``(den, rows)``."""
    den, rows, decode = _bracket_rows(pi, basis, max_grade)
    return den, {decode(key): row for key, row in rows.items()}


def rand_homogeneous_vf(rng, nvars, degree, nterms=2):
    """Vector field whose coefficients are homogeneous of a fixed degree."""
    terms = {}
    for i in range(1, nvars + 1):
        poly_terms = {}
        for _ in range(nterms):
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            c = Fraction(rng.randint(-2, 2))
            if c:
                poly_terms[tuple(exps)] = poly_terms.get(tuple(exps),
                                                         Fraction(0)) + c
        p = Poly(nvars, {k: v for k, v in poly_terms.items() if v})
        if not p.is_zero():
            terms[(i,)] = p
    return PolyMVF(nvars, 1, terms)


@pytest.fixture(scope="session")
def pi_so3():
    return linear_poisson(preset("so3"))


@pytest.fixture(scope="session")
def pi_sl2():
    return linear_poisson(preset("sl2"))


@pytest.fixture(scope="session")
def su3_spec():
    return preset("su3")


@pytest.fixture
def rng():
    return random.Random(20260823)
