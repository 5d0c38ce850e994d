"""Lie algebra data: structure constants, linear Poisson builders, Killing
classification, matrix presets, and the su(3) invariant geometry.

Structure constants are exact rationals.  Matrix presets carry two bases:
an exact one with Gaussian-rational entries (a+bi, a and b rational) whose
commutators reproduce the structure constants exactly, and — where the exact
basis cannot be orthonormal — a numeric basis orthonormal for the inner
product -tr(AB), used for the invariant-theory sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .polyalg import Poly, solve_linear_exact
from .multivector import PolyMVF

__all__ = [
    "GaussianRational",
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


class GaussianRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_gq(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gq(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gq(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_gq(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"({self.re}+{self.im}i)"

    def is_zero(self):
        return self.re == 0 and self.im == 0


def _as_gq(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational(v)


I = GaussianRational(0, 1)


def _mat(rows):
    return tuple(tuple(_as_gq(v) for v in row) for row in rows)


def _mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(m)),
                           GaussianRational()) for j in range(p))
                 for i in range(n))


def _mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _commutator(A, B):
    return _mat_sub(_mat_mul(A, B), _mat_mul(B, A))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass
class LieAlgebraSpec:
    """Bracket table [e_i, e_j] = sum_k C[(i,j,k)] e_k (1-based, sparse)."""

    dim: int
    C: dict = field(default_factory=dict)  # (i,j,k) -> Fraction, stored for i<j
    matrices: tuple | None = None          # exact Gaussian-rational basis
    orthonormal_basis: np.ndarray | None = None  # numeric, -tr(ab) = delta
    name: str | None = None

    def c(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self.C.get((i, j, k), Fraction(0))
        return -self.C.get((j, i, k), Fraction(0))

    def bracket_coords(self, u, v):
        """[u, v] in coordinates, for exact rational coordinate vectors."""
        out = [Fraction(0)] * self.dim
        for i in range(1, self.dim + 1):
            if u[i - 1] == 0:
                continue
            for j in range(1, self.dim + 1):
                if v[j - 1] == 0:
                    continue
                for k in range(1, self.dim + 1):
                    ck = self.c(i, j, k)
                    if ck:
                        out[k - 1] += u[i - 1] * v[j - 1] * ck
        return out

    def ad_matrix(self, i: int):
        """Matrix of ad_{e_i} in the basis: column j is [e_i, e_j]."""
        return [[self.c(i, j, k) for j in range(1, self.dim + 1)]
                for k in range(1, self.dim + 1)]

    def to_json_obj(self) -> dict:
        entries = [{"i": i, "j": j, "k": k, "value": str(v)}
                   for (i, j, k), v in sorted(self.C.items()) if v != 0]
        return {"dim": self.dim, "C": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LieAlgebraSpec":
        dim = int(obj["dim"])
        C: dict = {}
        for e in obj.get("C", []):
            i, j, k, v = int(e["i"]), int(e["j"]), int(e["k"]), Fraction(e["value"])
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

    @classmethod
    def from_json(cls, text: str) -> "LieAlgebraSpec":
        return cls.from_json_obj(json.loads(text))


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

def validate(spec: LieAlgebraSpec, check_jacobi: bool = True) -> LieAlgebraSpec:
    """Check antisymmetry and the Jacobi identity exactly; cross-check matrices.

    With ``check_jacobi=False`` only the structural sanity of the table is
    verified, so a non-Jacobi table can still be loaded and inspected (for
    instance by the ``check`` verb, which reports the defect as a witness).
    """
    n = spec.dim
    for (i, j, k) in spec.C:
        if not (1 <= i < j <= n and 1 <= k <= n):
            raise ValueError(f"bad structure-constant key {(i, j, k)}")
    if not check_jacobi:
        return spec
    basis1 = range(1, n + 1)
    for i in basis1:
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                for l in basis1:
                    s = Fraction(0)
                    for m in basis1:
                        s += (spec.c(i, j, m) * spec.c(m, k, l)
                              + spec.c(j, k, m) * spec.c(m, i, l)
                              + spec.c(k, i, m) * spec.c(m, j, l))
                    if s != 0:
                        raise ValueError(
                            f"Jacobi identity fails on basis triple {(i, j, k)}"
                            f" in component {l} (defect {s})")
    if spec.matrices is not None:
        if len(spec.matrices) != n:
            raise ValueError("matrix basis size mismatch")
        for i in basis1:
            for j in range(i + 1, n + 1):
                lhs = _commutator(spec.matrices[i - 1], spec.matrices[j - 1])
                acc = lhs
                for k in basis1:
                    ck = spec.c(i, j, k)
                    if ck:
                        acc = _mat_sub(acc, tuple(
                            tuple(ck * v for v in row) for row in spec.matrices[k - 1]))
                if any(not v.is_zero() for row in acc for v in row):
                    raise ValueError(
                        f"matrix commutator [e{i},e{j}] does not match structure constants")
    return spec


def linear_poisson(spec: LieAlgebraSpec) -> PolyMVF:
    """The linear bivector sum_(i<j) (sum_k C^k_ij x_k) d_i ^ d_j on g*."""
    n = spec.dim
    terms: dict[tuple, Poly] = {}
    for (i, j, k), v in spec.C.items():
        poly = Poly(n, {tuple(1 if m == k - 1 else 0 for m in range(n)): v})
        key = (i, j)
        terms[key] = terms.get(key, Poly.zero(n)) + poly
    terms = {k: p for k, p in terms.items() if not p.is_zero()}
    return PolyMVF(n, 2, terms)


def _exact_det(rows):
    """Determinant of a square matrix of Fractions (Gaussian elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def killing_classify(spec: LieAlgebraSpec) -> dict:
    """Killing form K(a,b) = tr(ad_a ad_b), exact; Cartan's criteria."""
    n = spec.dim
    ads = [spec.ad_matrix(i) for i in range(1, n + 1)]
    K = [[sum(ads[a][k][m] * ads[b][m][k]
              for k in range(n) for m in range(n))
          for b in range(n)] for a in range(n)]
    semisimple = _exact_det(K) != 0
    compact = True
    for size in range(1, n + 1):
        minor = _exact_det([row[:size] for row in K[:size]])
        if (minor > 0) != (size % 2 == 0) or minor == 0:
            compact = False
            break
    return {"semisimple": semisimple, "compact_type": compact}


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _constants_from_matrices(mats):
    """Derive the exact bracket table of a matrix basis by solving in the basis."""
    n = len(mats)
    size = len(mats[0])
    # coordinates: real and imaginary parts of all entries
    def coords(M):
        out = []
        for row in M:
            for v in row:
                out.extend((v.re, v.im))
        return out
    cols = [coords(M) for M in mats]
    C: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            target = coords(_commutator(mats[i], mats[j]))
            rows = [{c: cols[c][r] for c in range(n) if cols[c][r] != 0}
                    for r in range(2 * size * size)]
            out = solve_linear_exact(rows, target, ncols=n)
            if not out.feasible:
                raise ValueError("commutator leaves the span of the basis")
            for k, v in enumerate(out.particular):
                if v != 0:
                    C[(i + 1, j + 1, k + 1)] = v
    return C


_GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3),
]


def preset(name: str) -> LieAlgebraSpec:
    """Built-in algebras: so3, su2, sl2, su3 (all validated)."""
    if name == "so3":
        C = {(1, 2, 3): Fraction(1), (2, 3, 1): Fraction(1), (1, 3, 2): Fraction(-1)}
        spec = LieAlgebraSpec(3, C, name="so3")
    elif name == "su2":
        # e_a = i*sigma_a/2: [e_a, e_b] = -eps_abc e_c
        h = Fraction(1, 2)
        mats = (
            _mat([[0, I * h], [I * h, 0]]),
            _mat([[0, h], [-h, 0]]),
            _mat([[I * h, 0], [0, -(I * h)]]),
        )
        C = _constants_from_matrices(mats)
        spec = LieAlgebraSpec(3, C, matrices=mats, name="su2")
    elif name == "sl2":
        # basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f
        mats = (
            _mat([[0, 1], [0, 0]]),
            _mat([[0, 0], [1, 0]]),
            _mat([[1, 0], [0, -1]]),
        )
        C = _constants_from_matrices(mats)
        spec = LieAlgebraSpec(3, C, matrices=mats, name="sl2")
    elif name == "su3":
        def E(a, b, v):
            rows = [[GaussianRational() for _ in range(3)] for _ in range(3)]
            rows[a][b] = _as_gq(v)
            return rows
        def M(*parts):
            rows = [[GaussianRational() for _ in range(3)] for _ in range(3)]
            for a, b, v in parts:
                rows[a][b] = rows[a][b] + _as_gq(v)
            return tuple(tuple(row) for row in rows)
        mats = (
            M((0, 1, 1), (1, 0, -1)),            # E01 - E10
            M((0, 1, I), (1, 0, I)),             # i(E01 + E10)
            M((0, 2, 1), (2, 0, -1)),
            M((0, 2, I), (2, 0, I)),
            M((1, 2, 1), (2, 1, -1)),
            M((1, 2, I), (2, 1, I)),
            M((0, 0, I), (1, 1, -I)),            # i(E00 - E11)
            M((1, 1, I), (2, 2, -I)),            # i(E11 - E22)
        )
        C = _constants_from_matrices(mats)
        spec = LieAlgebraSpec(8, C, matrices=mats, orthonormal_basis=_su3_onb(), name="su3")
    else:
        raise ValueError(f"unknown preset {name!r}")
    return validate(spec)


# ---------------------------------------------------------------------------
# su(3) invariants
# ---------------------------------------------------------------------------

def _su3_onb() -> np.ndarray:
    return np.stack([1j * lam / math.sqrt(2) for lam in _GELL_MANN])


def su3_invariants(xi) -> tuple[float, float]:
    """(p1, p2) = (-tr(A^2), i*sqrt(6)*tr(A^3)) for A = sum xi_a e_a."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (8,):
        raise ValueError("expected an 8-vector")
    A = np.tensordot(xi, _su3_onb(), axes=(0, 0))
    p1 = -np.trace(A @ A)
    p2 = 1j * math.sqrt(6) * np.trace(A @ A @ A)
    for v in (p1, p2):
        if abs(v.imag) > 1e-12:
            raise ValueError(f"invariant not real: imaginary residue {v.imag}")
    return float(p1.real), float(p2.real)


def weyl_circle_sample(r: float, theta: float) -> WeylCircleSample:
    """Diagonal point r*A(theta) on the Weyl circle, in orthonormal coordinates."""
    if r <= 0:
        raise ValueError("radius must be positive")
    point = np.zeros(8)
    point[2] = r * math.cos(theta)   # along i*lambda_3/sqrt(2)
    point[7] = r * math.sin(theta)   # along i*lambda_8/sqrt(2)
    q1, q2 = su3_invariants(point)
    return WeylCircleSample(r, theta, point, q1, q2)


def coadjoint_invariance_check(spec: LieAlgebraSpec, f: Poly, trials: int,
                               seed: int) -> float:
    """Max |f(flow point) - f(start)| along random coadjoint flows exp(t ad*_X)."""
    n = spec.dim
    if f.nvars != n:
        raise ValueError("polynomial variable count must match the algebra dimension")
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
