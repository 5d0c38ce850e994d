"""Lie algebra data: structure constants, linear Poisson builders, Killing
classification, the built-in presets, and the su(3) invariant geometry.

Structure constants are exact rationals.  The presets are literal bracket
tables of small integers.  Each comes from a matrix basis, named at
``_PRESETS``; the tests solve every commutator of that basis in the basis
and require the literal table back.  The numeric Gell-Mann basis,
orthonormal for the inner product -tr(AB), serves the su(3)
invariant-theory sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .polyalg import Poly, _as_int, _as_real, _matrix_entry, exact_rank
from .multivector import MAX_NVARS, PolyMVF, schouten

if TYPE_CHECKING:  # annotations only: NumPy is imported where floats are computed
    import numpy as np

__all__ = [
    "LieAlgebraSpec",
    "WeylCircleSample",
    "validate",
    "linear_poisson",
    "killing_classify",
    "preset",
    "su3_invariants",
    "weyl_circle_sample",
    "coadjoint_invariance_check",
]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass
class LieAlgebraSpec:
    """Bracket table [e_i, e_j] = sum_k C[(i,j,k)] e_k (1-based, sparse).

    ``dim`` is an integer in 1..``MAX_NVARS`` (``_as_int``).  Each key is a
    triple of ints, 1 <= i < j <= dim and 1 <= k <= dim, and each value an
    int, a ``Fraction`` or a rational string, stored as a ``Fraction``;
    anything else is refused.  The Jacobi identity is the verdict of ``validate``.
    """

    dim: int
    C: dict = field(default_factory=dict)  # (i,j,k) -> Fraction, stored for i<j

    def __post_init__(self):
        self.dim = _as_int(self.dim, "dim", 1, MAX_NVARS)
        for key in self.C:
            if not (type(key) is tuple and len(key) == 3 and all(type(x) is int for x in key)
                    and 1 <= key[0] < key[1] <= self.dim and 1 <= key[2] <= self.dim):
                raise ValueError(f"bad structure-constant key {key}")
        self.C = {key: _matrix_entry(v, f"structure constant {key}") for key, v in self.C.items()}

    def c(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self.C.get((i, j, k), Fraction(0))
        return -self.C.get((j, i, k), Fraction(0))

    def ad_matrix(self, i: int):
        """Matrix of ad_{e_i} in the basis: column j is [e_i, e_j]."""
        return [[self.c(i, j, k) for j in range(1, self.dim + 1)]
                for k in range(1, self.dim + 1)]

    def to_json_obj(self) -> dict:
        entries = [{"i": i, "j": j, "k": k, "value": str(v)}
                   for (i, j, k), v in sorted(self.C.items()) if v != 0]
        return {"dim": self.dim, "C": entries}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LieAlgebraSpec":
        """Read a table: ``dim`` and each ``i``/``j``/``k`` are JSON integers
        (``1 <= dim <= MAX_NVARS``), each ``value`` an integer or a rational
        string."""
        dim = _as_int(obj["dim"], "dim", 1, MAX_NVARS)
        C: dict = {}
        for e in obj.get("C", []):
            i, j, k = (_as_int(e[key], key) for key in "ijk")
            try:
                v = _matrix_entry(e["value"])
            except ValueError:  # a string that is not a rational, too
                raise ValueError(f"'value' must be an integer or a rational string, "
                                 f"got {e['value']!r}") from None
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"structure-constant index out of range: {e}")
            if i == j:
                if v != 0:
                    raise ValueError(f"C^{k}_{{{i},{i}}} must vanish")
                continue
            key, val = ((i, j, k), v) if i < j else ((j, i, k), -v)
            if key in C and C[key] != val:
                raise ValueError(f"conflicting values for C at {key}")
            C[key] = val
        return cls(dim, {k: v for k, v in C.items() if v != 0})


@dataclass(frozen=True)
class WeylCircleSample:
    r: float
    theta: float
    point: np.ndarray  # 8-vector, orthonormal su(3)* coordinates
    q1: float
    q2: float


# ---------------------------------------------------------------------------
# Validation and builders
# ---------------------------------------------------------------------------

def validate(spec: LieAlgebraSpec) -> LieAlgebraSpec:
    """Check, exactly, the Jacobi identity of the table.

    The table is a Lie bracket iff its linear bivector pi has [pi, pi] = 0.
    The coefficient of x_l at d_i ^ d_j ^ d_k in [pi, pi] is -2 times the
    Jacobi sum of the triple (i, j, k) in component l, so the first nonzero
    triple and its lowest variable name the first failure.
    """
    pi = linear_poisson(spec)
    jacobiator = schouten(pi, pi).terms
    if jacobiator:
        triple = min(jacobiator)
        l, coeff = min((e.index(1) + 1, c) for e, c in jacobiator[triple].terms.items())
        raise ValueError(
            f"Jacobi identity fails on basis triple {triple}"
            f" in component {l} (defect {-coeff / 2})")
    return spec


def linear_poisson(spec: LieAlgebraSpec) -> PolyMVF:
    """The linear bivector sum_(i<j) (sum_k C^k_ij x_k) d_i ^ d_j on g*."""
    n = spec.dim
    terms: dict[tuple, dict] = {}
    for (i, j, k), v in spec.C.items():
        terms.setdefault((i, j), {})[tuple(int(m == k) for m in range(1, n + 1))] = v
    return PolyMVF(n, 2, {ij: Poly(n, t) for ij, t in terms.items()})


def killing_classify(spec: LieAlgebraSpec) -> dict:
    """Killing form K(a,b) = tr(ad_a ad_b), exact; Cartan's criteria.

    Semisimple iff K is nondegenerate.  Compact type iff K is negative
    definite, which by Sylvester's criterion holds iff every pivot of an
    elimination without row swaps is negative.
    """
    n = spec.dim
    ads = [spec.ad_matrix(i) for i in range(1, n + 1)]
    K = [[sum(ads[a][k][m] * ads[b][m][k]
              for k in range(n) for m in range(n))
          for b in range(n)] for a in range(n)]
    semisimple = exact_rank(K, n) == n
    compact = True
    for col in range(n):
        pivot = K[col][col]
        if pivot >= 0:
            compact = False
            break
        for r in range(col + 1, n):
            f = K[r][col] / pivot
            if f:
                for c in range(col + 1, n):
                    K[r][c] -= f * K[col][c]
    return {"semisimple": semisimple, "compact_type": compact}


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# name -> (dim, {(i, j, k): C^k_ij for i < j}).  Bases: so3 the rotation
# generators, [e_a, e_b] = eps_abc e_c; su2 e_a = i*sigma_a/2, so
# [e_a, e_b] = -eps_abc e_c; sl2 (e, f, h), [e,f]=h, [h,e]=2e, [h,f]=-2f;
# su3 the anti-Hermitian E01-E10, i(E01+E10), E02-E20, i(E02+E20),
# E12-E21, i(E12+E21), i(E00-E11), i(E11-E22) (Eab the matrix units).
_PRESETS = {
    "so3": (3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}),
    "su2": (3, {(1, 2, 3): -1, (1, 3, 2): 1, (2, 3, 1): -1}),
    "sl2": (3, {(1, 2, 3): 1, (1, 3, 1): -2, (2, 3, 2): 2}),
    "su3": (8, {
        (1, 2, 7): 2, (1, 3, 5): -1, (1, 4, 6): -1, (1, 5, 3): 1,
        (1, 6, 4): 1, (1, 7, 2): -2, (1, 8, 2): 1, (2, 3, 6): 1,
        (2, 4, 5): -1, (2, 5, 4): 1, (2, 6, 3): -1, (2, 7, 1): 2,
        (2, 8, 1): -1, (3, 4, 7): 2, (3, 4, 8): 2, (3, 5, 1): -1,
        (3, 6, 2): 1, (3, 7, 4): -1, (3, 8, 4): -1, (4, 5, 2): -1,
        (4, 6, 1): -1, (4, 7, 3): 1, (4, 8, 3): 1, (5, 6, 8): 2,
        (5, 7, 6): 1, (5, 8, 6): -2, (6, 7, 5): -1, (6, 8, 5): 2,
    }),
}


def preset(name: str) -> LieAlgebraSpec:
    """Built-in algebras: so3, su2, sl2, su3 (the tests check each table)."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    dim, table = _PRESETS[name]
    return LieAlgebraSpec(dim, table)


# ---------------------------------------------------------------------------
# su(3) invariants
# ---------------------------------------------------------------------------

@functools.cache
def _su3_onb() -> np.ndarray:
    """The basis i*lambda_a/sqrt(2) of su(3) from the Gell-Mann matrices, read-only."""
    import numpy as np
    gell_mann = [
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
        np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3),
    ]
    onb = np.stack([1j * lam / math.sqrt(2) for lam in gell_mann])
    onb.flags.writeable = False  # one cached array serves every caller
    return onb


def su3_invariants(xi) -> tuple[float, float]:
    """(p1, p2) = (-tr(A^2), i*sqrt(6)*tr(A^3)) for A = sum xi_a e_a."""
    import numpy as np
    entries = np.asarray(xi, dtype=object).ravel()  # a bool mixed into floats stays a bool
    xi = np.asarray(xi)
    if xi.dtype.kind not in "iuf" or any(isinstance(x, (bool, np.bool_)) for x in entries):
        raise ValueError(f"'xi' must have real entries, got {entries.tolist()}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (8,):
        raise ValueError("expected an 8-vector")
    if not np.isfinite(xi).all():
        raise ValueError(f"'xi' must have finite entries, got {xi.tolist()}")
    A = np.tensordot(xi, _su3_onb(), axes=(0, 0))
    p1 = -np.trace(A @ A)
    p2 = 1j * math.sqrt(6) * np.trace(A @ A @ A)
    for v in (p1, p2):
        if abs(v.imag) > 1e-12:
            raise ValueError(f"invariant not real: imaginary residue {v.imag}")
    return float(p1.real), float(p2.real)


def weyl_circle_sample(r: float, theta: float) -> WeylCircleSample:
    """Diagonal point r*A(theta) on the Weyl circle, in orthonormal coordinates."""
    r, theta = _as_real(r, "radius r", positive=True), _as_real(theta, "theta")
    import numpy as np
    point = np.zeros(8)
    point[2] = r * math.cos(theta)   # along i*lambda_3/sqrt(2)
    point[7] = r * math.sin(theta)   # along i*lambda_8/sqrt(2)
    q1, q2 = su3_invariants(point)
    return WeylCircleSample(r, theta, point, q1, q2)


def coadjoint_invariance_check(spec: LieAlgebraSpec, f: Poly, trials: int,
                               seed: int) -> float:
    """Max |f(flow point) - f(start)| along random coadjoint flows exp(t ad*_X)."""
    import numpy as np
    import scipy.linalg  # here, so that importing the package does not load SciPy

    n = spec.dim
    if f.nvars != n:
        raise ValueError("polynomial variable count must match the algebra dimension")
    trials, seed = _as_int(trials, "trials", 1), _as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    # (ad*_X xi)_k = <xi, [X, e_k]> = sum_{j,m} X_j C^m_{jk} xi_m
    Ck = np.zeros((n, n, n))
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                Ck[j - 1, k - 1, m - 1] = float(spec.c(j, k, m))
    for _ in range(trials):
        xi0 = rng.normal(size=n)
        X = rng.normal(size=n)
        M = np.einsum("j,jkm->km", X, Ck)  # d/dt xi_k = M[k,m] xi_m
        f0 = f.eval_numeric(xi0)
        for t in (0.25, 0.7, 1.0):
            xit = scipy.linalg.expm(t * M) @ xi0
            worst = max(worst, abs(f.eval_numeric(xit) - f0))
    return worst
