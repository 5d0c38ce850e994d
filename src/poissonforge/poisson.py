"""Poisson-specific operations on polynomial bivector fields.

Jacobi verification, the sharp (anchor) map, brackets, exact Casimir bases,
and cohomology ranks of the homogeneous complexes attached to a linear
structure.

``graded_basis`` and ``_bracket_rows`` are the one assembly of the operator
``[pi, .]`` on a graded monomial basis; Casimir bases, cohomology ranks and
the homotopy solves of ``formal`` all build their matrices through them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .polyalg import Poly, _add_term, _as_int, _complex_ranks, _Rows, solve_linear_exact
from .multivector import PolyMVF, _check_bivector, _grade, _schouten_sums, _weights, schouten

__all__ = [
    "PoissonCheck",
    "CohomologyTable",
    "check_poisson",
    "sharp",
    "poisson_bracket",
    "MAX_BASIS",
    "basis_size",
    "graded_basis",
    "casimir_basis",
    "cohomology_dims",
]


@dataclass(frozen=True)
class PoissonCheck:
    is_poisson: bool
    witness: PolyMVF  # the trivector [pi, pi]; zero iff is_poisson


def check_poisson(pi: PolyMVF) -> PoissonCheck:
    """Test the Jacobi identity [pi, pi] = 0 exactly."""
    _check_bivector(pi)
    witness = schouten(pi, pi)
    return PoissonCheck(witness.is_zero(), witness)


def sharp(pi: PolyMVF, alpha) -> PolyMVF:
    """The anchor pi#(alpha) = pi(alpha, .) for a polynomial 1-form alpha.

    alpha may be an integer i (meaning dx_i) or a length-n sequence of Poly
    coefficients.  sharp(pi, grad f) is the Hamiltonian vector field of f.
    """
    _check_bivector(pi)
    n = pi.nvars
    if not hasattr(alpha, "__len__"):
        alpha = _as_int(alpha, f"dx_i in 1..{n}")
        if not 1 <= alpha <= n:
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
    return PolyMVF(n, 1, terms, pi.weights)


def hamiltonian_vf(pi: PolyMVF, f: Poly) -> PolyMVF:
    """H_f = pi#(df)."""
    grad = [f.diff(i) for i in range(1, pi.nvars + 1)]
    return sharp(pi, grad)


def poisson_bracket(pi: PolyMVF, f: Poly, g: Poly) -> Poly:
    """{f, g} = pi(df, dg)."""
    _check_bivector(pi)
    out = Poly.zero(pi.nvars)
    for (i, j), p in pi.terms.items():
        out = out + p * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return out


# ---------------------------------------------------------------------------
# The operator [pi, .] on graded monomial bases
# ---------------------------------------------------------------------------

# The largest basis graded_basis builds.  The exact solver's time grows about
# as the square of the basis size.  The largest su(3) solve it admits is the
# 2518 x 2016 bracket rows of cohomology at (grade, k) = (2, 3): the whole
# cohomology_dims call up to k = 3 takes 0.28 s (median of 7, 2-core x86-64
# Xeon, Python 3.11.7).  The next, (3, 2), has 3360 columns.
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


def _bracket_rows(pi: PolyMVF, basis, keyed: bool, max_grade: int | None = None):
    """The matrix of [pi, .] on a monomial basis, as ``(den, rows)``.

    The matrix is ``rows / den``: ``den`` is pi's denominator and ``rows``
    holds sparse rows of nonzero ``int``s.  Column c is the basis element
    ``basis[c] = (legs, exps)``; rows are keyed by the (legs, exps)
    monomials of the brackets, or with ``keyed`` false are the list of their
    values, in order.  The basis is trusted to come from ``graded_basis``:
    distinct elements, increasing legs in 1..n, exponent vectors of length n.
    With ``max_grade`` set, only the rows of grade at most ``max_grade`` are
    formed: the kernel skips every pair whose bracket lies above it.  Only
    then are the basis grades computed, as nothing else reads them.

    One call of the integer Schouten kernel of ``multivector`` brackets pi's
    numerators with every basis monomial, tagged with its column, so the
    images of different columns never share a sum.
    """
    weights = pi.weights
    cols = {(0 if max_grade is None else _grade(weights, legs, exps), legs, exps): col
            for col, (legs, exps) in enumerate(basis)}
    return pi.den, _schouten_sums(pi._ints, cols, weights, max_grade, keyed)


# ---------------------------------------------------------------------------
# Casimirs
# ---------------------------------------------------------------------------

def casimir_basis(pi: PolyMVF, D: int) -> list[Poly]:
    """Rational basis of {f : deg f <= D, pi#(df) = 0}: one exact kernel over all
    degrees <= D, so an inhomogeneous pi's inhomogeneous Casimirs are found too."""
    D = _as_int(D, "max degree D", 0)
    if not check_poisson(pi).is_poisson:
        raise ValueError("bivector is not Poisson; Casimirs undefined")
    n = pi.nvars
    # [pi, f] = -pi#(df); columns by degree and descending-lex within a
    # degree fix the published normalisation of each RREF kernel vector
    monos = [mono for d in range(D + 1) for mono in graded_basis(n, 0, d, [1] * n)[::-1]]
    A = _Rows(_bracket_rows(pi, monos, False)[1])
    out = solve_linear_exact(A, [0] * len(A), ncols=len(monos))
    return [Poly._raw(n, {m: v for (_, m), v in zip(monos, vec) if v})
            for vec in out.kernel_basis]


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


def cohomology_dims(pi_lin: PolyMVF, l: int, kmax: int) -> CohomologyTable:
    """Dims/ranks/betti of d = [pi_lin, .] on grade-l homogeneous k-vectors.

    [pi_lin, pi_lin] = 0 is checked exactly, so d_{k+1} d_k = 0 (as
    [pi, [pi, X]] = [[pi, pi], X] / 2), and the ranks are certified by the
    complex's exactness where it can be (``polyalg._complex_ranks``).
    """
    l, kmax = _as_int(l, "grade l", 0), _as_int(kmax, "max degree kmax", 0)
    _check_bivector(pi_lin)
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
