"""Numerical symplectic realization of polynomial Poisson structures.

Given a Poisson bivector pi on R^n, the flow phi_t of the spray
V(x,y) = (sum_i pi_ij(x) y_i d/dx_j ; 0) on T*R^n = R^n x R^n averages the
canonical symplectic form into omega = int_0^1 phi_t^* omega_can dt, which is
symplectic near the zero section and makes the bundle projection a Poisson
map onto (R^n, pi).  This module integrates the flow together with its
variational equations and the quadrature in one RK4 pass, and verifies the
realization properties at seeded random samples.

Only what moves is integrated.  The spray has ydot = 0, so y is carried
along unchanged, and the lower rows of the Jacobian J stay [0 I]; only the
top block J_top = [Jxx Jxy] evolves, by Jdot_top = M J_top + [0 | P^T] with
M = d(xdot)/dx and P = pi(x).  The integrand
J^T omega_can J = [[0, Jxx^T], [-Jxx, Jxy^T - Jxy]] is linear in J_top, so the
quadrature keeps K = int J_top dt (the RK4 weights applied to the stage
values of J_top) and the form is assembled from K once at the end.
`SprayField` compiles pi and its partial derivatives into one monomial
table, and every evaluation reads that table.

It also contains the midpoint quadrature used to reproduce sphere-leaf
symplectic areas and their radial variations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .multivector import PolyMVF

__all__ = [
    "SprayField",
    "RealizationReport",
    "FlowBlowupError",
    "flow_with_jacobian",
    "realization_form",
    "verify_realization",
    "symplectic_area",
    "sphere_leaf_form",
    "dh_variation",
]


class FlowBlowupError(RuntimeError):
    def __init__(self, t):
        super().__init__(f"spray flow left numeric range near t = {t:.4g}")
        self.t = t


class SprayField:
    """The simplest contravariant spray of a polynomial bivector.

    `pi` and its n partial derivatives are compiled once into the m
    monomials they use and a float coefficient table `_coef` of shape
    (m, n+1, n, n): slot 0 holds pi_ij, slot k holds d(pi_ij)/dx_k.  Every
    evaluation reads that table.  Inside the integrator the batch axis comes
    last, so that each elementwise operation runs over a contiguous batch.
    """

    def __init__(self, pi: PolyMVF):
        if pi.grade != 2:
            raise ValueError("expected a bivector")
        self.pi = pi
        n = self.n = pi.nvars
        table: dict[tuple, np.ndarray] = {}

        def add(e, slot, i, j, c):
            if e not in table:
                table[e] = np.zeros((n + 1, n, n))
            table[e][slot, i - 1, j - 1] += float(c)
            table[e][slot, j - 1, i - 1] -= float(c)

        for (i, j), poly in pi.terms.items():
            for e, c in poly.terms.items():
                add(e, 0, i, j, c)
                for k in range(n):
                    if e[k]:
                        add(e[:k] + (e[k] - 1,) + e[k + 1:], k + 1, i, j, e[k] * c)
        exps = np.array(sorted(table), dtype=int).reshape(-1, n)
        m = len(exps)
        self._coef = np.array([table[tuple(e)] for e in exps]).reshape(m, n + 1, n, n)
        # x_v^p is row v*(deg+1) + p of the power table built by _monomials
        self._deg = int(exps.max(initial=0))
        self._rows = exps.T + (self._deg + 1) * np.arange(n)[:, None]
        # _rhs tables; their columns run over (i, monomial) pairs
        pt = self._coef[:, 0].transpose(2, 1, 0)      # [j, i, m] = pi_ij coefficient
        self._pt = pt.reshape(n * n, m)               # P^T
        # rows j: xdot_j = sum_i y_i pi_ij;  rows n + j*n + k: M[j, k] = d(xdot_j)/dx_k
        self._xm = np.concatenate([
            pt.reshape(n, n * m),
            self._coef[:, 1:].transpose(3, 1, 2, 0).reshape(n * n, n * m)])

    def _monomials(self, xt: np.ndarray) -> np.ndarray:
        """Monomial values, shape (m, ...), at points xt of shape (n, ...)."""
        powers = np.empty((self.n, self._deg + 1) + xt.shape[1:])
        powers[:, 0] = 1.0
        if self._deg:
            powers[:, 1] = xt
        for p in range(2, self._deg + 1):
            np.multiply(powers[:, p - 1], xt, out=powers[:, p])
        powers = powers.reshape((-1,) + xt.shape[1:])
        out = powers[self._rows[0]]
        for rows in self._rows[1:]:
            out *= powers[rows]
        return out

    def _entries(self, x, slots) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        V = self._monomials(np.moveaxis(x, -1, 0))
        return np.tensordot(V, self._coef[:, slots], axes=(0, 0))

    def pi_matrix(self, x: np.ndarray) -> np.ndarray:
        """Shape (..., n, n): the matrix pi_ij(x)."""
        return self._entries(x, 0)

    def dpi_matrices(self, x: np.ndarray) -> np.ndarray:
        """Shape (..., n, n, n): entry [k,i,j] = d(pi_ij)/dx_k at x."""
        return self._entries(x, slice(1, None))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Horizontal part of V: (dx/dt)_j = sum_i pi_ij(x) y_i."""
        P = self.pi_matrix(x)
        return np.einsum("...ij,...i->...j", P, y)


def _rhs(spray: SprayField, x, yt, Jt):
    """One RK4 stage: xdot (B, n) and Jdot_top (n, 2n, B).

    `x` is (B, n); `yt` is y transposed, (n, B); `Jt` is J_top with the batch
    last, (n, 2n, B).
    """
    n = spray.n
    V = spray._monomials(x.T)                                  # (m, B)
    VY = (yt[:, None, :] * V[None, :, :]).reshape(-1, V.shape[1])
    XM = spray._xm @ VY                                        # (n + n*n, B)
    M = XM[n:].reshape(n, n, -1)                               # [j, k, b]
    # Jdot_top = M J_top + [0 | P^T]
    Jdot = M[:, 0, None, :] * Jt[None, 0]
    for k in range(1, n):
        Jdot += M[:, k, None, :] * Jt[None, k]
    Jdot[:, n:] += (spray._pt @ V).reshape(n, n, -1)
    return XM[:n].T, Jdot


def _flow_batch(pi: PolyMVF, xi: np.ndarray, t_final: float, steps: int):
    """Batched RK4 for the spray flow, its Jacobian and the realization form.

    Integrates x and J_top = [Jxx Jxy] (the rows of J that move); y stays
    as given and the lower rows of J are [0 I].  K accumulates the RK4
    quadrature of the stage values of J_top, and the form is assembled once
    at the end as Om = [[0, Kxx^T], [-Kxx, Kxy^T - Kxy]], which is
    int_0^{t_final} J^T Omega_can J dt.

    Returns (x, y, J, Om, blowup_time) with J the full (B, 2n, 2n) Jacobian.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spray = SprayField(pi)
    n = spray.n
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    B = xi.shape[0]
    x = xi[:, :n].copy()
    y = xi[:, n:].copy()
    yt = np.ascontiguousarray(y.T)
    Jt = np.zeros((n, 2 * n, B))
    Jt[:, :n] = np.eye(n)[:, :, None]
    K = np.zeros_like(Jt)
    h = t_final / steps
    check_every = max(1, steps // 32)
    blowup = None
    for s in range(steps):
        k1 = _rhs(spray, x, yt, Jt)
        J2 = Jt + 0.5 * h * k1[1]
        k2 = _rhs(spray, x + 0.5 * h * k1[0], yt, J2)
        J3 = Jt + 0.5 * h * k2[1]
        k3 = _rhs(spray, x + 0.5 * h * k2[0], yt, J3)
        J4 = Jt + h * k3[1]
        k4 = _rhs(spray, x + h * k3[0], yt, J4)
        x += (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        K += (h / 6) * (Jt + 2 * J2 + 2 * J3 + J4)
        Jt += (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if (s + 1) % check_every == 0 or s == steps - 1:
            if not np.isfinite(x).all() or not np.isfinite(Jt).all():
                blowup = (s + 1) * h
                break
    J = np.zeros((B, 2 * n, 2 * n))
    J[:, :n] = Jt.transpose(2, 0, 1)
    J[:, n:, n:] = np.eye(n)
    Kxx = K[:, :n].transpose(2, 0, 1)
    Kxy = K[:, n:].transpose(2, 0, 1)
    Om = np.zeros((B, 2 * n, 2 * n))
    Om[:, :n, n:] = Kxx.transpose(0, 2, 1)
    Om[:, n:, :n] = -Kxx
    Om[:, n:, n:] = Kxy.transpose(0, 2, 1) - Kxy
    return x, y, J, Om, blowup


def flow_with_jacobian(V: SprayField, xi, t_final: float, steps: int):
    """RK4 flow of the spray from xi, with the variational equations."""
    x, y, J, _, blowup = _flow_batch(V.pi, np.asarray(xi, dtype=float)[None, :],
                                     t_final, steps)
    if blowup is not None:
        raise FlowBlowupError(blowup)
    return np.concatenate([x[0], y[0]]), J[0]


def realization_form(pi: PolyMVF, xi, steps: int) -> np.ndarray:
    """omega_xi = int_0^1 (phi_t^* omega_can)_xi dt, as a 2n x 2n matrix."""
    _, _, _, Om, blowup = _flow_batch(pi, np.asarray(xi, dtype=float)[None, :],
                                      1.0, steps)
    if blowup is not None:
        raise FlowBlowupError(blowup)
    return Om[0]


@dataclass(frozen=True)
class RealizationReport:
    n_samples: int
    seed: int
    steps: int
    radius: float
    fd_step: float
    skew_defect_max: float
    domega_max: float
    det_min: float
    poisson_residual_max: float
    zero_section_residual: float
    skipped: int

    def to_json_obj(self) -> dict:
        return {
            "n_samples": self.n_samples, "seed": self.seed, "steps": self.steps,
            "radius": self.radius, "fd_step": self.fd_step,
            "skew_defect_max": self.skew_defect_max,
            "domega_max": self.domega_max, "det_min": self.det_min,
            "poisson_residual_max": self.poisson_residual_max,
            "zero_section_residual": self.zero_section_residual,
            "skipped": self.skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def verify_realization(pi: PolyMVF, n_samples: int, radius: float, seed: int,
                       steps: int) -> RealizationReport:
    """Check Theorem-0 properties of omega at seeded random points |xi| <= radius."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and > 0")
    n = pi.nvars
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_samples, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = radius * rng.uniform(0.1, 1.0, size=(n_samples, 1))
    base = dirs * mags
    h = 1e-4 * radius

    # one batch: base points, 2*(2n) finite-difference shifts, zero-section points
    shifts = []
    for a in range(2 * n):
        e = np.zeros(2 * n)
        e[a] = h
        shifts.extend([base + e, base - e])
    zero_sec = np.concatenate([base[:, :n], np.zeros((n_samples, n))], axis=1)
    batch = np.concatenate([base] + shifts + [zero_sec], axis=0)

    x, y, J, Om, blowup = _flow_batch(pi, batch, 1.0, steps)
    finite = np.isfinite(Om).all(axis=(1, 2))
    groups = 2 + 4 * n  # base + shifts + zero-section
    ok = finite.reshape(groups, n_samples).all(axis=0)
    skipped = int(n_samples - ok.sum())
    if not ok.any():
        raise FlowBlowupError(blowup if blowup is not None else 1.0)
    Om = Om.reshape(groups, n_samples, 2 * n, 2 * n)[:, ok]
    kept = int(ok.sum())

    omega = Om[0]
    skew_defect = np.abs(omega + omega.transpose(0, 2, 1)).max()
    dets = np.linalg.det(omega)
    det_min = float(np.abs(dets).min())

    omega_inv = np.linalg.inv(omega)
    Pi_base = pi.bivector_matrix(base[ok, :n])
    poisson_res = np.abs(omega_inv[:, :n, :n] - Pi_base).max()

    # d(omega) via central differences of the matrix entries
    grad = np.empty((2 * n, kept, 2 * n, 2 * n))
    for a in range(2 * n):
        grad[a] = (Om[1 + 2 * a] - Om[2 + 2 * a]) / (2 * h)
    d3 = [grad[a, :, b, c] + grad[b, :, c, a] + grad[c, :, a, b]
          for a, b, c in itertools.combinations(range(2 * n), 3)]
    domega_max = float(np.abs(d3).max()) if d3 else 0.0  # NaN propagates

    omega0 = Om[-1]
    closed = np.zeros_like(omega0)
    closed[:, :n, n:] = np.eye(n)
    closed[:, n:, :n] = -np.eye(n)
    closed[:, n:, n:] = pi.bivector_matrix(base[ok, :n])
    zero_res = float(np.abs(omega0 - closed).max())

    return RealizationReport(
        n_samples=n_samples, seed=seed, steps=steps, radius=radius, fd_step=h,
        skew_defect_max=float(skew_defect), domega_max=domega_max,
        det_min=det_min, poisson_residual_max=float(poisson_res),
        zero_section_residual=zero_res, skipped=skipped)


# ---------------------------------------------------------------------------
# Sphere-leaf areas and their radial variation
# ---------------------------------------------------------------------------

def symplectic_area(form, grid) -> float:
    """Composite-midpoint integral of f dphi^dtheta over [0,2pi]x[-pi/2,pi/2].

    `form(phi, theta)` must accept broadcast arrays; `grid` is an int N
    (N x N nodes) or a pair (n_phi, n_theta), each at least 32.
    """
    if isinstance(grid, int):
        n_phi = n_theta = grid
    else:
        n_phi, n_theta = grid
    if n_phi < 32 or n_theta < 32:
        raise ValueError("grid must be at least 32 x 32")
    dphi = 2 * math.pi / n_phi
    dtheta = math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * dphi
    theta = -math.pi / 2 + (np.arange(n_theta) + 0.5) * dtheta
    vals = form(phi[:, None], theta[None, :])
    return float(np.sum(vals) * dphi * dtheta)


def _skew3_pinv_quadratic(P, u, v):
    """u^T (-pinv(P)) v for batched 3x3 skew P (axial-vector closed form)."""
    w = np.stack([P[..., 2, 1], P[..., 0, 2], P[..., 1, 0]], axis=-1)
    norm2 = np.sum(w * w, axis=-1)
    Pv = np.cross(w, v)
    return np.einsum("...i,...i->...", u, Pv) / norm2


def sphere_leaf_form(pi: PolyMVF, r: float, scale: float = 1.0):
    """Leaf symplectic form of `scale * pi` on the radius-r sphere, as a
    chart function f with omega = f dphi^dtheta.

    The form is the fiberwise inverse of the bivector on the leaf tangent
    planes: f = t_phi^T (-pinv(Pi)) t_theta at p(phi,theta).
    """
    if pi.nvars != 3:
        raise ValueError("sphere leaves require a bivector on R^3")

    def form(phi, theta):
        phi, theta = np.broadcast_arrays(phi, theta)
        cp, sp = np.cos(phi), np.sin(phi)
        ct, st = np.cos(theta), np.sin(theta)
        p = r * np.stack([cp * ct, sp * ct, st], axis=-1)
        t_phi = r * np.stack([-sp * ct, cp * ct, np.zeros_like(ct)], axis=-1)
        t_theta = r * np.stack([-cp * st, -sp * st, ct], axis=-1)
        P = scale * pi.bivector_matrix(p)
        return _skew3_pinv_quadratic(P, t_phi, t_theta)

    return form


def dh_variation(r: float, h: float, grid=(64, 2048)) -> tuple[float, float]:
    """Radial derivatives of the two sphere-generator areas on S^2 x S^2_r.

    The leaf carries (1+r^2)^{-1} omega_{S^2} + omega_r; the generator areas
    are 4pi/(1+r^2) and 4pi*r, recomputed here by quadrature of the leaf
    forms and differentiated centrally in r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    from .liealg import linear_poisson, preset
    pi = linear_poisson(preset("so3"))

    def sigma1(rv):
        # unit sphere factor, bivector scaled by (1 + r^2)
        return symplectic_area(sphere_leaf_form(pi, 1.0, scale=1.0 + rv * rv), grid)

    def sigma2(rv):
        return symplectic_area(sphere_leaf_form(pi, rv), grid)

    d1 = (sigma1(r + h) - sigma1(r - h)) / (2 * h)
    d2 = (sigma2(r + h) - sigma2(r - h)) / (2 * h)
    return d1, d2
