"""Seeded inputs and independent oracles for the three benchmark workloads.

Each workload builds a list of ``Case`` objects: the argv handed to
``poissonforge.cli.main`` (inputs are JSON files written into a work
directory) plus a checker that judges the CLI's JSON output.  Checkers
raise ``OracleError``; they never reuse the computation the case times.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from poissonforge.formal import ad_exp
from poissonforge import liealg
from poissonforge.liealg import LieAlgebraSpec, linear_poisson
from poissonforge.multivector import PolyMVF, truncate_jet
from poissonforge.polyalg import Poly, parse_poly
from poissonforge.poisson import poisson_bracket

GAUGE_D = 4
SPRAY_STEPS = 100
# Samples per spray case, by bivector.  verify_realization integrates
# B = samples * (2 + 4n) trajectories, so n = 3 gives B = 1400 and B = 140.
SPRAY_SAMPLES = {"so3": 100, "quad": 10}
SPRAY_BATCHES = {name: s * (2 + 4 * 3) for name, s in SPRAY_SAMPLES.items()}
SPRAY_REPEATS = {"so3": 4, "quad": 16}


class OracleError(Exception):
    """A CLI result disagrees with the benchmark's independent oracle."""


def require(ok: bool, message: str):
    if not ok:
        raise OracleError(message)


@dataclass
class Case:
    id: str
    argv: list
    expect_rc: int
    check: Callable[[dict], None]


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _coeff(rng) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2]))


def _signs(n: int, rng) -> list:
    return [rng.choice((-1, 1)) for _ in range(n)]


def reflected_algebra(spec: LieAlgebraSpec, signs) -> LieAlgebraSpec:
    """The same algebra in the basis e'_i = signs[i] * e_i."""
    C = {(i, j, k): v * signs[i - 1] * signs[j - 1] * signs[k - 1]
         for (i, j, k), v in spec.C.items()}
    return LieAlgebraSpec(spec.dim, C)


def reflect(W: PolyMVF, signs) -> PolyMVF:
    """W in the coordinates y_i = signs[i] * x_i."""
    terms = {}
    for legs, poly in W.terms.items():
        leg_sign = math.prod(signs[i - 1] for i in legs)
        terms[legs] = Poly(W.nvars, {
            exps: c * leg_sign * math.prod(s ** k for s, k in zip(signs, exps))
            for exps, c in poly.terms.items()})
    return PolyMVF(W.nvars, W.grade, terms, W.weights)


def _monomial_exps(n: int, degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]


def _parse_mvf(obj) -> PolyMVF:
    try:
        return PolyMVF.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise OracleError(f"unparseable multivector in output: {e}") from e


# ---------------------------------------------------------------------------
# gauge: formal linearization and obstructions
# ---------------------------------------------------------------------------

# Per algebra: (degree of X0, monomials per component), as in criterion 2.
GAUGE_LAYOUT = [(2, 1)] * 6 + [(2, 2)] + [(3, 2)]
GAUGE_PROLONG_CAPS = (2, 5, 8)


def _gauge_corpus():
    """The X0 fields: fixed, so that every seed poses a problem of the same size."""
    rng = random.Random("poissonforge-gauge-corpus")
    corpus = []
    for name in ("so3", "sl2"):
        for deg, nterms in GAUGE_LAYOUT:
            X0 = PolyMVF(3, 1, {(i,): Poly(3, {m: _coeff(rng) for m in
                                               rng.sample(_monomial_exps(3, deg), nterms)})
                                for i in (1, 2, 3)})
            corpus.append((name, deg, X0))
    return corpus


def _check_equivalent(pi_lin: PolyMVF, pi: PolyMVF):
    want = truncate_jet(pi, GAUGE_D)

    def check(out):
        require(out.get("status") == "equivalent", f"status {out.get('status')!r}")
        X = _parse_mvf(out["X"])
        try:
            got = ad_exp(X, pi_lin, GAUGE_D).value
        except ValueError as e:
            raise OracleError(f"gauge field rejected by ad_exp: {e}") from e
        require(got == want, "ad_exp(X, pi_lin) differs from the input jet")
    return check


def _check_obstructed(grade: int, key: str):
    def check(out):
        require(out.get("status") == "obstructed", f"status {out.get('status')!r}")
        require(out.get(key) == grade, f"{key} {out.get(key)!r}, expected {grade}")
        require(not _parse_mvf(out["cochain"]).is_zero(), "zero obstruction cochain")
    return check


def gauge_cases(seed: int, workdir: str) -> list[Case]:
    rng = random.Random(f"gauge:{seed}")
    presets = {name: linear_poisson(liealg.preset(name)) for name in ("so3", "sl2")}
    cases = []
    for k, (name, deg, X0) in enumerate(_gauge_corpus()):
        # The seed reflects each entry's coordinates.  A reflection keeps
        # the pivot pattern of the homotopy solve, so every seed poses the
        # same work; a permutation would not (the particular solution
        # depends on column order, moving a case's cost up to 8x).
        signs = _signs(3, rng)
        pi_lin = reflect(presets[name], signs)
        pi = reflect(ad_exp(X0, presets[name], GAUGE_D).value, signs)
        path = _write(workdir, f"gauge-{k}.json", pi.to_json_obj())
        cases.append(Case(f"linearize-{name}-d{deg}-{k}",
                          ["linearize", path, "--truncate", str(GAUGE_D), "--format", "json"],
                          0, _check_equivalent(pi_lin, pi)))
    # a plane bivector with zero linear part is obstructed at grade 2
    for k, extra in enumerate(("", "x1*x2")):
        poly = parse_poly(f"{_coeff(rng)}*x1^2", 2)
        if extra:
            poly = poly + parse_poly(f"{_coeff(rng)}*{extra}", 2)
        path = _write(workdir, f"plane-{k}.json", PolyMVF(2, 2, {(1, 2): poly}).to_json_obj())
        cases.append(Case(f"linearize-plane-{k}",
                          ["linearize", path, "--truncate", str(GAUGE_D), "--format", "json"],
                          1, _check_obstructed(2, "degree")))
    # criterion-4 jet a*x3 d1^d2 + b*x1*x3 d1^d3: Jacobiator -ab*x3^2, grade 4
    jet = PolyMVF(3, 2, {(1, 2): Poly(3, {(0, 0, 1): _coeff(rng)}),
                         (1, 3): Poly(3, {(1, 0, 1): _coeff(rng)})})
    path = _write(workdir, "jet.json", jet.to_json_obj())
    for cap in GAUGE_PROLONG_CAPS:
        cases.append(Case(f"prolong-cap{cap}",
                          ["prolong", path, "--weights", "0,0,1",
                           "--base-degree-cap", str(cap), "--format", "json"],
                          1, _check_obstructed(4, "grade")))
    return cases


# ---------------------------------------------------------------------------
# ranks: Casimir bases and cohomology tables
# ---------------------------------------------------------------------------

# Poincare polynomial coefficients of H(g) and degrees of the generators of
# the invariant polynomials, for the semisimple algebras used here.
ALGEBRA_FACTS = {
    "so3": ({0: 1, 3: 1}, (2,)),
    "sl2": ({0: 1, 3: 1}, (2,)),
    "su2": ({0: 1, 3: 1}, (2,)),
    "su3": ({0: 1, 3: 1, 5: 1, 8: 1}, (2, 3)),
}


def casimir_dim(name: str, degree: int) -> int:
    """dim Cas_degree: monomials of that degree in the invariant generators."""
    gens = ALGEBRA_FACTS[name][1]
    return sum(1 for e in itertools.product(*(range(degree // g + 1) for g in gens))
               if sum(a * g for a, g in zip(e, gens)) == degree)


def _rank(vectors) -> int:
    """Exact rank by plain Fraction elimination (independent of polyalg's solver)."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_cohomology(name: str, n: int, grade: int, kmax: int):
    poincare = ALGEBRA_FACTS[name][0]

    def check(out):
        rows = {row["k"]: row for row in out.get("rows", [])}
        require(out.get("grade") == grade and sorted(rows) == list(range(kmax + 1)),
                "wrong table shape")
        for k, row in rows.items():
            dim = math.comb(n, k) * math.comb(n + grade - 1, grade)
            require(row["dim"] == dim, f"k={k}: dim {row['dim']}, expected {dim}")
            betti = poincare.get(k, 0) * casimir_dim(name, grade)
            require(row["betti"] == betti, f"k={k}: betti {row['betti']}, expected {betti}")
    return check


def _check_casimirs(name: str, pi: PolyMVF, max_degree: int):
    n = pi.nvars
    coords = [Poly.variable(n, i) for i in range(1, n + 1)]

    def check(out):
        try:
            basis = [parse_poly(s, n) for s in out["casimirs"]]
        except (KeyError, TypeError, ValueError) as e:
            raise OracleError(f"unparseable Casimir list: {e}") from e
        by_degree = {}
        for f in basis:
            degrees = {sum(e) for e in f.terms}
            require(len(degrees) == 1, f"Casimir {f} is not homogeneous")
            by_degree.setdefault(degrees.pop(), []).append(f)
            for x in coords:
                require(poisson_bracket(pi, f, x).is_zero(),
                        f"Casimir {f} does not Poisson-commute with {x}")
        for d in range(max_degree + 1):
            polys = by_degree.get(d, [])
            require(len(polys) == casimir_dim(name, d),
                    f"degree {d}: {len(polys)} Casimirs, expected {casimir_dim(name, d)}")
            monos = sorted({e for f in polys for e in f.terms})
            require(_rank([[f.terms.get(e, 0) for e in monos] for f in polys]) == len(polys),
                    f"degree {d}: Casimirs are linearly dependent")
    return check


def ranks_cases(seed: int, workdir: str) -> list[Case]:
    rng = random.Random(f"ranks:{seed}")
    specs = {name: liealg.preset(name) for name in ALGEBRA_FACTS}
    plan = [("su3", "casimirs", 4, None),
            ("su3", "cohomology", 1, 3), ("su3", "cohomology", 2, 1)]
    plan += [(name, "cohomology", grade, 3) for name in ("so3", "sl2", "su2")
             for grade in range(2, 8)]
    cases = []
    for k, (name, verb, a, b) in enumerate(plan):
        spec = reflected_algebra(specs[name], _signs(specs[name].dim, rng))
        path = _write(workdir, f"ranks-{k}.json", spec.to_json_obj())
        if verb == "casimirs":
            cases.append(Case(f"casimirs-{name}-d{a}",
                              ["casimirs", path, "--max-degree", str(a), "--format", "json"],
                              0, _check_casimirs(name, linear_poisson(spec), a)))
        else:
            cases.append(Case(f"cohomology-{name}-l{a}-k{b}",
                              ["cohomology", path, "--grade", str(a), "--max-degree", str(b),
                               "--format", "json"],
                              0, _check_cohomology(name, spec.dim, a, b)))
    return cases


# ---------------------------------------------------------------------------
# spray: numerical symplectic realization
# ---------------------------------------------------------------------------

def _check_realization(samples: int):
    def check(out):
        require(out.get("n_samples") == samples and out.get("steps") == SPRAY_STEPS,
                "report is for another sample count or step count")
        require(out["skipped"] == 0, f"skipped {out['skipped']} samples")
        require(out["poisson_residual_max"] < 1e-6,
                f"poisson residual {out['poisson_residual_max']:.3e}")
        require(out["domega_max"] < 1e-5, f"|d omega| {out['domega_max']:.3e}")
        require(out["det_min"] > 1e-6, f"det omega {out['det_min']:.3e}")
        require(out["zero_section_residual"] < 1e-8,
                f"zero-section residual {out['zero_section_residual']:.3e}")
    return check


def spray_cases(seed: int, workdir: str) -> list[Case]:
    rng = random.Random(f"spray:{seed}")
    so3 = linear_poisson(reflected_algebra(liealg.preset("so3"), _signs(3, rng)))
    # v = (c x1^2, b x2^2, a x3^2) has zero curl, so this bivector is Poisson
    a, b, c = (_coeff(rng) for _ in range(3))
    quad = PolyMVF(3, 2, {(1, 2): Poly(3, {(0, 0, 2): a}), (1, 3): Poly(3, {(0, 2, 0): -b}),
                          (2, 3): Poly(3, {(2, 0, 0): c})})
    paths = {"so3": _write(workdir, "so3.json", so3.to_json_obj()),
             "quad": _write(workdir, "quad.json", quad.to_json_obj())}
    cases = []
    for name, repeats in SPRAY_REPEATS.items():
        samples = SPRAY_SAMPLES[name]
        for r in range(repeats):
            cases.append(Case(f"realize-{name}-B{SPRAY_BATCHES[name]}-{r}",
                              ["realize", paths[name], "--samples", str(samples),
                               "--steps", str(SPRAY_STEPS), "--seed", str(rng.randrange(2**31)),
                               "--format", "json"],
                              0, _check_realization(samples)))
    return cases


WORKLOADS = {"gauge": gauge_cases, "ranks": ranks_cases, "spray": spray_cases}
