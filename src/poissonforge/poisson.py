"""Poisson-specific operations on polynomial bivector fields.

Jacobi verification, the sharp (anchor) map, brackets, exact Casimir bases,
and cohomology ranks of the homogeneous complexes attached to a linear
structure.  The anchor is a bracket, H_f = -[pi, f], and ``sharp`` wedges a
1-form's coefficients onto the H_{x_i}.  Only ``poisson_bracket`` keeps ``Poly``
arithmetic: the benchmark checks Casimirs with it, independently of the kernel.

``graded_basis`` builds the graded monomial bases on which Casimir bases,
cohomology ranks and the homotopy solves of ``formal`` take the matrix of
``[pi, .]`` from the Schouten kernel's one entry, ``multivector._bracket_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .polyalg import Poly, _as_int, _as_sequence, _complex_ranks, _Rows, solve_linear_exact
from .multivector import PolyMVF, _bracket_rows, _check_bivector, _weights, schouten, wedge

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

    alpha is an integer i, meaning dx_i, whose image is H_{x_i}, or a length-n
    sequence (no string or mapping) of coefficients a_i, each a ``Poly`` of n
    variables or an exact scalar (an int, ``Fraction`` or rational string, read
    by ``Poly.constant``), whose image is the sum of the a_i ^ H_{x_i}.
    """
    _check_bivector(pi)
    n = pi.nvars
    if not hasattr(alpha, "__len__"):
        return hamiltonian_vf(pi, Poly.variable(n, _as_int(alpha, f"dx_i in 1..{n}", 1, n)))
    coeffs = list(_as_sequence(alpha, "1-form alpha"))
    if len(coeffs) != n:
        raise ValueError(f"1-form needs {n} coefficients")
    return sum((wedge(PolyMVF.from_function(a if isinstance(a, Poly) else Poly.constant(n, a),
                                            pi.weights), sharp(pi, i))
                for i, a in enumerate(coeffs, 1)), PolyMVF.zero(n, 1, pi.weights))


def hamiltonian_vf(pi: PolyMVF, f: Poly) -> PolyMVF:
    """H_f = pi#(df) = -[pi, f], for f a ``Poly`` of pi's variables."""
    _check_bivector(pi)
    return -schouten(pi, PolyMVF.from_function(f, pi.weights))


def poisson_bracket(pi: PolyMVF, f: Poly, g: Poly) -> Poly:
    """{f, g} = pi(df, dg) in ``Poly`` arithmetic, the benchmark's kernel-free Casimir oracle."""
    _check_bivector(pi)
    out = Poly.zero(pi.nvars)
    for (i, j), p in pi.terms.items():
        out = out + p * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return out


# ---------------------------------------------------------------------------
# The operator [pi, .] on graded monomial bases
# ---------------------------------------------------------------------------

# The largest basis graded_basis builds.  The exact solver's time grows about
# as the square of the basis size.  The largest su(3) solve it admits is
# cohomology at (grade, k) = (2, 3), 2518 bracket rows on the 1261 of its 2016
# columns off the pivot rows of d_2: the whole cohomology_dims call up to
# k = 3 takes 0.066 s (median of 7, 2-core x86-64 Xeon, Python 3.11.7).  The
# next, (3, 2), has 3360 columns.
MAX_BASIS = 2048


def basis_size(n: int, k: int, l: int, weights, base_degree_cap: int = 0) -> int:
    """``len(graded_basis(n, k, l, weights, base_degree_cap))`` in closed form.

    With all-ones weights it is ``C(n, k) * C(n + l - 1, l)``.  With ``nb``
    base and ``nf`` fiber variables, a basis element with ``j`` base legs has
    fiber degree ``l - j`` and free base exponents in ``0..base_degree_cap``.
    """
    return _basis_size(*_basis_args(n, k, l, weights, base_degree_cap))


def _basis_size(n: int, k: int, l: int, weights: tuple, base_degree_cap: int) -> int:
    """``basis_size`` of trusted arguments, as ``_basis_args`` reads them."""
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
    return _graded_bases(n, (k,), l, weights, base_degree_cap)[0]


def _graded_bases(n, ks, l, weights: tuple, base_degree_cap, fiber_floor=0) -> list:
    """``graded_basis`` of each k in ``ks`` at fiber degree ``fiber_floor`` and up, from one
    build of the exponent tails; the arguments are trusted, as ``_basis_args`` reads them."""
    for k in ks:
        size = _basis_size(n, k, l, weights, base_degree_cap)
        if size > MAX_BASIS:
            raise ValueError(f"the grade-{l} basis of {k}-vectors in {n} variables has {size} "
                             f"elements, above the bound of {MAX_BASIS} (MAX_BASIS)")

    # tails[d]: the nonzero (i, e_i) of the exponents of x_i..x_n with fiber degree d, built
    # from the last variable back, ascending in x_i and then in the tail.  A zero exponent
    # reuses the tail as it is, so each exponent vector is written out once, at the end.  A
    # leg set with j base legs reads the fiber degree l - j, so only degrees lo..hi are read.
    # A step builds only the degrees a later step reads, 0..hi while a fiber variable is left,
    # else lo..hi, and reads none above top, the highest that holds tails: building costs
    # what the basis holds.  A step replaces a degree's list and never extends it, so the
    # empty lists can be one list.
    nb, first_fiber, top = weights.count(0), weights.index(1) if 1 in weights else n, 0
    lo = max(fiber_floor, min(max(l - min(k, nb), 0) for k in ks))
    hi = max(l - max(k - n + nb, 0) for k in ks)
    tails = [[()]] + [[]] * hi
    for i, w in reversed(list(enumerate(weights))):
        start, end = 0 if i > first_fiber else lo, hi if w else top
        tails[start:end + 1] = [tails[d] + [((i, e),) + t for e in (
            range(d - top if d > top else 1, d + 1) if w else range(1, base_degree_cap + 1))
            for t in tails[d - w * e]] for d in range(start, end + 1)]
        top = end
    zero = [0] * n
    for d in range(lo, hi + 1):
        tail = tails[d]
        for c, nonzero in enumerate(tail):
            exps = zero.copy()
            for i, e in nonzero:
                exps[i] = e
            tail[c] = tuple(exps)
    bases = [[] for _ in ks]
    for k, out in zip(ks, bases):
        for legs in itertools.combinations(range(1, n + 1), k):
            fiber_deg = l - sum(1 for i in legs if weights[i - 1] == 0)
            if fiber_deg >= fiber_floor:
                out.extend((legs, exps) for exps in tails[fiber_deg])
    return bases


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
    A = _Rows(_bracket_rows(pi, monos)[1].values())
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
    [pi, [pi, X]] = [[pi, pi], X] / 2).  Each d_k is built on the k-vectors
    off those whose rows of d_{k-1} yielded pivots, and the ranks are
    certified by the complex's exactness where it can be
    (``polyalg._complex_ranks``).  C^k = 0 for k > n, so only degrees up to
    min(kmax, n) are built, and the rows above them read 0.
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
    built = degrees[:pi_lin.nvars + 1]
    bases = _graded_bases(pi_lin.nvars, built, l, pi_lin.weights, 0)
    dims = [len(basis) for basis in bases]
    ranks = _complex_ranks(lambda k, skip: _bracket_rows(
        pi_lin, [b for b in bases[k] if b not in skip])[1:], dims)
    dim_cochains = dict.fromkeys(degrees, 0) | dict(zip(built, dims))
    rank_d = dict.fromkeys(degrees, 0) | dict(zip(built, ranks))
    betti = {k: dim_cochains[k] - rank_d[k] - rank_d.get(k - 1, 0) for k in degrees}
    return CohomologyTable(l, degrees, dim_cochains, rank_d, betti)
