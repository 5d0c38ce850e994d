"""Poisson-specific operations on polynomial bivector fields.

Jacobi verification, the sharp (anchor) map, brackets, exact Casimir bases,
cohomology ranks of the homogeneous complexes attached to a linear structure,
pointwise gauge transformations, and the rescaling path connecting a
vanishing-at-zero structure to its linear part.

``graded_basis`` and ``bracket_rows`` are the one assembly of the operator
``[pi, .]`` on a graded monomial basis; Casimir bases, cohomology ranks and
the homotopy solves of ``formal`` all build their matrices through them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .polyalg import (Poly, _add_term, _as_fraction, _as_int, _complex_ranks, _Rows,
                      solve_linear_exact)
from .multivector import (PolyMVF, _integer_terms, _schouten_sums, _weights, dilate,
                          grade_component, schouten)

if TYPE_CHECKING:  # annotations only: NumPy is imported where floats are computed
    import numpy as np

__all__ = [
    "PoissonCheck",
    "CohomologyTable",
    "check_poisson",
    "sharp",
    "poisson_bracket",
    "MAX_BASIS",
    "basis_size",
    "graded_basis",
    "bracket_rows",
    "casimir_basis",
    "cohomology_dims",
    "gauge_pointwise",
    "GaugeSingularError",
    "conn_rescale",
]


@dataclass(frozen=True)
class PoissonCheck:
    is_poisson: bool
    witness: PolyMVF  # the trivector [pi, pi]; zero iff is_poisson


def check_poisson(pi: PolyMVF) -> PoissonCheck:
    """Test the Jacobi identity [pi, pi] = 0 exactly."""
    if pi.grade != 2:
        raise ValueError(f"expected a bivector, got degree {pi.grade}")
    witness = schouten(pi, pi)
    return PoissonCheck(witness.is_zero(), witness)


def sharp(pi: PolyMVF, alpha) -> PolyMVF:
    """The anchor pi#(alpha) = pi(alpha, .) for a polynomial 1-form alpha.

    alpha may be an integer i (meaning dx_i) or a length-n sequence of Poly
    coefficients.  sharp(pi, grad f) is the Hamiltonian vector field of f.
    """
    if pi.grade != 2:
        raise ValueError(f"expected a bivector, got degree {pi.grade}")
    n = pi.nvars
    if isinstance(alpha, int):
        if isinstance(alpha, bool) or not 1 <= alpha <= n:
            raise ValueError(f"dx_i needs an integer i in 1..{n}, got {alpha!r}")
        coeffs = [Poly.zero(n)] * (alpha - 1) + [Poly.constant(n, 1)]
        coeffs += [Poly.zero(n)] * (n - alpha)
    else:
        coeffs = list(alpha)
        if len(coeffs) != n:
            raise ValueError(f"1-form needs {n} coefficients")
    terms: dict[tuple, Poly] = {}
    for (i, j), p in pi.terms.items():
        # pi(dx_i, .) picks up +p d_j; pi(dx_j, .) picks up -p d_i
        _add_term(terms, (j,), p * coeffs[i - 1])
        _add_term(terms, (i,), -(p * coeffs[j - 1]))
    return PolyMVF._raw(n, 1, terms, pi.weights)


def hamiltonian_vf(pi: PolyMVF, f: Poly) -> PolyMVF:
    """H_f = pi#(df)."""
    grad = [f.diff(i) for i in range(1, pi.nvars + 1)]
    return sharp(pi, grad)


def poisson_bracket(pi: PolyMVF, f: Poly, g: Poly) -> Poly:
    """{f, g} = pi(df, dg)."""
    if pi.grade != 2:
        raise ValueError(f"expected a bivector, got degree {pi.grade}")
    out = Poly.zero(pi.nvars)
    for (i, j), p in pi.terms.items():
        out = out + p * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return out


# ---------------------------------------------------------------------------
# The operator [pi, .] on graded monomial bases
# ---------------------------------------------------------------------------

# The largest basis graded_basis builds.  The exact solver's time grows about
# as the square of the basis size: the largest su(3) solve it admits, the
# 2518 x 2016 bracket rows of cohomology at (grade, k) = (2, 3), takes 0.65 s
# to rank (2-core x86-64, Python 3.11); the next, (3, 2), has 3360 columns.
MAX_BASIS = 2048


def basis_size(n: int, k: int, l: int, weights, base_degree_cap: int = 0) -> int:
    """``len(graded_basis(n, k, l, weights, base_degree_cap))`` in closed form.

    With all-ones weights it is ``C(n, k) * C(n + l - 1, l)``.  With ``nb``
    base and ``nf`` fiber variables, a basis element with ``j`` base legs has
    fiber degree ``l - j`` and free base exponents in ``0..base_degree_cap``.
    """
    n, k, l, weights, base_degree_cap = _basis_args(n, k, l, weights, base_degree_cap)
    nb = sum(1 for w in weights if w == 0)
    nf = n - nb
    total = 0
    for j in range(min(k, nb, l) + 1):
        fiber = math.comb(nf + l - j - 1, l - j) if nf else int(l == j)
        total += math.comb(nb, j) * math.comb(nf, k - j) * fiber
    return total * (base_degree_cap + 1) ** nb


def _basis_args(n, k, l, weights, base_degree_cap) -> tuple:
    """The arguments of ``basis_size`` and ``graded_basis``: each integer read by
    ``_as_int``, and ``weights`` by ``PolyMVF``'s rule, n entries each 0 or 1."""
    n = _as_int(n, "n", 0)
    return (n, _as_int(k, "k", 0), _as_int(l, "grade l", 0), _weights(weights, n),
            _as_int(base_degree_cap, "base_degree_cap", 0))


def graded_basis(n: int, k: int, l: int, weights, base_degree_cap: int = 0) -> list:
    """Monomial k-vectors x^exps d_legs of dilation grade l, as (legs, exps) pairs.

    A monomial's grade is its degree in the fiber (weight-1) variables plus
    its number of base (weight-0) legs; base variables carry degree at most
    ``base_degree_cap``.  Leg sets come in ascending lexicographic order and,
    within each, exponent vectors too: solutions are RREF-canonical for a
    fixed column order, so gauge fields depend on this order.  A basis of
    more than ``MAX_BASIS`` elements raises ``ValueError`` before it is built.
    """
    n, k, l, weights, base_degree_cap = _basis_args(n, k, l, weights, base_degree_cap)
    size = basis_size(n, k, l, weights, base_degree_cap)
    if size > MAX_BASIS:
        raise ValueError(f"the grade-{l} basis of {k}-vectors in {n} variables has {size} "
                         f"elements, above the bound of {MAX_BASIS} (MAX_BASIS)")

    # tails[d]: exponents of x_i..x_n with fiber degree d, built from the
    # last variable back, ascending in x_i and then in the tail
    tails = [[()]] + [[] for _ in range(l)]
    for i in reversed(range(n)):
        if weights[i] == 1:
            tails = [[(e,) + t for e in range(d + 1) for t in tails[d - e]] for d in range(l + 1)]
        else:
            tails = [[(e,) + t for e in range(base_degree_cap + 1) for t in tails[d]]
                     for d in range(l + 1)]
    out = []
    for legs in itertools.combinations(range(1, n + 1), k):
        fiber_deg = l - sum(1 for i in legs if weights[i - 1] == 0)
        if fiber_deg >= 0:
            out.extend((legs, exps) for exps in tails[fiber_deg])
    return out


def bracket_rows(pi: PolyMVF, basis) -> tuple[int, dict]:
    """The matrix of [pi, .] on a monomial basis, as ``(den, rows)``.

    The matrix is ``rows / den``: ``den`` is the lcm of pi's denominators
    and ``rows`` holds sparse rows of nonzero ``int``s.  Column c is the
    basis element ``basis[c] = (legs, exps)``; rows are keyed by the
    (legs, exps) monomials of the brackets.  The basis is trusted to be one
    ``graded_basis`` builds: increasing legs in 1..n and exponent vectors of
    length n.

    One call of the integer Schouten kernel of ``multivector`` brackets pi,
    brought over its denominator once, with every basis monomial: each
    monomial is tagged with its column, so the images of different columns
    never share a sum.
    """
    return _bracket_rows(pi, basis, True)


def _bracket_rows(pi: PolyMVF, basis, keyed: bool, max_grade: int | None = None):
    """``bracket_rows``, or with ``keyed`` false only its rows' values, in order.

    With ``max_grade`` set, only the rows of grade at most ``max_grade`` are
    formed: the kernel skips every pair whose bracket lies above it.
    """
    den, pi_terms = _integer_terms(pi)
    monos: dict[tuple, list] = {}
    for col, (legs, exps) in enumerate(basis):
        monos.setdefault(legs, []).append((exps, 1, col))
    return den, _schouten_sums(pi_terms, list(monos.items()), pi.weights, max_grade, keyed)


# ---------------------------------------------------------------------------
# Casimirs
# ---------------------------------------------------------------------------

def casimir_basis(pi: PolyMVF, D: int) -> list[Poly]:
    """Rational basis of {f : deg f <= D, pi#(df) = 0}, found per degree."""
    D = _as_int(D, "max degree D", 0)
    chk = check_poisson(pi)
    if not chk.is_poisson:
        raise ValueError("bivector is not Poisson; Casimirs undefined")
    n = pi.nvars
    basis: list[Poly] = []
    for d in range(D + 1):
        # [pi, f] = -pi#(df); descending-lex columns fix the published
        # normalisation of each RREF kernel vector
        monos = graded_basis(n, 0, d, [1] * n)[::-1]
        A = _Rows(_bracket_rows(pi, monos, False)[1])
        out = solve_linear_exact(A, [0] * len(A), ncols=len(monos))
        for vec in out.kernel_basis:
            terms = {m: v for (_, m), v in zip(monos, vec) if v != 0}
            if terms:
                basis.append(Poly(n, terms))
    return basis


# ---------------------------------------------------------------------------
# Cohomology of the homogeneous complex of a linear structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyTable:
    grade: int
    degrees: list
    dim_cochains: dict
    rank_d: dict
    betti: dict

    def to_json_obj(self) -> dict:
        rows = [{"k": k, "dim": self.dim_cochains[k], "rank": self.rank_d[k],
                 "betti": self.betti[k]} for k in self.degrees]
        return {"grade": self.grade, "rows": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def cohomology_dims(pi_lin: PolyMVF, l: int, kmax: int) -> CohomologyTable:
    """Dims/ranks/betti of d = [pi_lin, .] on grade-l homogeneous k-vectors.

    [pi_lin, pi_lin] = 0 is checked exactly, so d_{k+1} d_k = 0 (as
    [pi, [pi, X]] = [[pi, pi], X] / 2), and the ranks are certified by the
    complex's exactness where it can be (``polyalg._complex_ranks``).
    """
    l, kmax = _as_int(l, "grade l", 0), _as_int(kmax, "max degree kmax", 0)
    if pi_lin.grade != 2:
        raise ValueError("expected a bivector")
    if pi_lin._grades() - {1}:
        raise ValueError("cohomology_dims needs a linear (grade-1 homogeneous) bivector")
    if not check_poisson(pi_lin).is_poisson:
        raise ValueError("bivector is not Poisson")
    if any(w != 1 for w in pi_lin.weights):
        # base-variable degree is unbounded in principle
        raise ValueError("cohomology_dims requires all-ones weights")
    degrees = list(range(kmax + 1))
    bases = [graded_basis(pi_lin.nvars, k, l, pi_lin.weights) for k in degrees]
    dims = [len(basis) for basis in bases]
    ranks = _complex_ranks([_bracket_rows(pi_lin, basis, False)[1] for basis in bases], dims)
    dim_cochains, rank_d = dict(zip(degrees, dims)), dict(zip(degrees, ranks))
    betti = {k: dim_cochains[k] - rank_d[k] - rank_d.get(k - 1, 0) for k in degrees}
    return CohomologyTable(l, degrees, dim_cochains, rank_d, betti)


# ---------------------------------------------------------------------------
# Gauge transformations (pointwise, numeric)
# ---------------------------------------------------------------------------

class GaugeSingularError(ValueError):
    def __init__(self, det):
        super().__init__(f"gauge transformation singular: |det(Id + omega# pi#)| = {abs(det):.3e}")
        self.det = det


def gauge_pointwise(pi_matrix: np.ndarray, omega_matrix: np.ndarray) -> np.ndarray:
    """Gauge-transformed bivector matrix pi# (Id + omega# pi#)^{-1} at a point."""
    import numpy as np
    P = np.asarray(pi_matrix, dtype=float)
    W = np.asarray(omega_matrix, dtype=float)
    if P.shape != W.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    for M, name in ((P, "pi"), (W, "omega")):
        if not np.allclose(M, -M.T, atol=1e-12):
            raise ValueError(f"{name} matrix is not skew-symmetric")
    M = np.eye(P.shape[0]) - W @ P
    det = np.linalg.det(M)
    if abs(det) < 1e-10:
        raise GaugeSingularError(det)
    out = P @ np.linalg.inv(M)
    return 0.5 * (out - out.T)  # symmetrize away round-off


# ---------------------------------------------------------------------------
# Rescaling path to the linear part
# ---------------------------------------------------------------------------

def conn_rescale(pi: PolyMVF, t) -> PolyMVF:
    """The path pi^t with pi^1 = pi and pi^0 = linear part (for pi(0) = 0).

    ``t`` is exact: an int, a ``Fraction`` or a rational string.
    """
    if pi.grade != 2:
        raise ValueError("expected a bivector")
    for (i, j), p in pi.terms.items():
        if p.constant_term() != 0:
            raise ValueError(
                f"coefficient of d{i}^d{j} has nonzero constant term; pi(0) != 0")
    t = _as_fraction(t)
    if t == 0:
        return grade_component(pi, 1).value
    return dilate(pi, t)
