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
top block J_top = [Jxx Jxy] evolves, and the RK4 state is the stacked
Z = [x; J_top], batch last; only the single-point entries rebuild y and
the [0 I] rows.  A stage writes into a workspace that each
batch allocates once: the monomial values V(x), the product [y; 1] (x) V, and
its product with the stage table of `SprayField`, which gives xdot and
G = [M | P^T] (M = d(xdot)/dx, P = pi(x)); then Jdot_top = G [J_top; 0 I].
Every view a stage reads or writes, of the workspace, of the states and of
the four slopes, is also built once per batch, so a stage only calls the
arithmetic into them.
J^T omega_can J = [[0, Jxx^T], [-Jxx, Jxy^T - Jxy]] is linear in J_top, so the
quadrature keeps K = int J_top dt and assembles the form once at the end.
The RK4 step of K, (h/6)(J_1 + 2 J_2 + 2 J_3 + J_4) in the stage values, is
h J_1 + (h^2/6)(k_1 + k_2 + k_3) in the stage slopes k_i, added to K at once.

A trajectory that leaves numeric range does not cut its batch short: every
stage acts column by column, so its non-finite values stay in its column and
the others are integrated to the end.  `verify_realization` skips each
sample with a non-finite column; the single-point entries raise
`FlowBlowupError`.

It also contains the midpoint quadrature used to reproduce sphere-leaf
symplectic areas and their radial variations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .multivector import MAX_NVARS, PolyMVF, _check_bivector
from .polyalg import _as_float, _as_int, _as_real, _format_terms

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


class FlowBlowupError(RuntimeError, ValueError):
    def __init__(self, t):
        super().__init__(f"spray flow left numeric range near t = {t:.4g}")
        self.t = t


def _index(ix: list):
    """Rows as a slice (a view, not a gather) if they repeat one row or run consecutively."""
    run = len(set(ix)) == 1 or ix == list(range(ix[0], ix[-1] + 1))
    return slice(ix[0], ix[-1] + 1) if run else np.array(ix)


class SprayField:
    """The simplest contravariant spray of a polynomial bivector.

    `pi` and its n partial derivatives are compiled once into the m
    monomials they use and a float coefficient table `_coef` of shape
    (m, n+1, n, n): slot 0 holds pi_ij, slot k holds d(pi_ij)/dx_k.  The
    integrator reads that table as the stage table
    `_stage`, (n + 2n^2, (n+1) m), columns (i, monomial) weighted by y_i for
    i < n and by 1 for i = n.  Its rows give xdot_j = sum_i y_i pi_ij, then
    G = [M | P^T] with M[j, k] = sum_i y_i d(pi_ij)/dx_k and P^T[j, c] = pi_cj.
    One recipe evaluates the monomials: one of degree d >= 1 is its parent
    (the last nonzero exponent lowered by one) times that variable.  They and
    their parents are rows of a workspace, the constant (ones) first, then a
    block per degree filled by one product; a gather puts them in stage order.
    The batch axis comes last, so each elementwise operation is contiguous.
    """

    def __init__(self, pi: PolyMVF):
        _check_bivector(pi)
        n = self.n = pi.nvars
        table: dict[tuple, np.ndarray] = {}

        def add(e, slot, i, j, c):
            if e not in table:
                table[e] = np.zeros((n + 1, n, n))
            table[e][slot, i - 1, j - 1] += c
            table[e][slot, j - 1, i - 1] -= c

        for (i, j), poly in pi.terms.items():
            for e, c in poly.terms.items():  # each float named by pi's monomial
                # the workspace below keeps a row for each monomial on the parent
                # chain of e, sum(e) + 1 rows, walked before any sample runs
                if sum(e) > MAX_NVARS:
                    raise ValueError(f"the monomial {_format_terms([(e, 1, 1)])} has degree "
                                     f"{sum(e)}, above the spray workspace bound of "
                                     f"{MAX_NVARS} (MAX_NVARS)")
                add(e, 0, i, j, _as_float(c, e))
                for k in range(n):
                    if e[k]:
                        add(e[:k] + (e[k] - 1,) + e[k + 1:], k + 1, i, j, _as_float(e[k] * c, e))
        exps = sorted(table)
        m = len(exps)
        self._coef = np.array([table[e] for e in exps]).reshape(m, n + 1, n, n)
        up = {}                                    # monomial -> (variable, parent)
        for e in exps:
            while any(e) and e not in up:
                v = max(k for k in range(n) if e[k])
                up[e] = v, (p := e[:v] + (e[v] - 1,) + e[v + 1:])
                e = p
        rows = sorted({(0,) * n, *up}, key=lambda e: (sum(e), e[::-1]))
        at = {e: r for r, e in enumerate(rows)}
        self._nrows, self._take = len(rows), np.array([at[e] for e in exps], dtype=np.intp)
        self._levels = [(slice(at[lv[0]], at[lv[-1]] + 1), _index([at[up[e][1]] for e in lv]),
                         _index([up[e][0] for e in lv]))      # rows, parent rows, variables
                        for lv in (list(g) for _, g in itertools.groupby(rows[1:], key=sum))]
        pt = self._coef[:, 0].transpose(2, 1, 0)          # [j, i, m] = pi_ij coefficient
        stage = np.zeros((n + 2 * n * n, n + 1, m))
        stage[:n, :n] = pt
        G = stage[n:].reshape(n, 2 * n, n + 1, m)
        G[:, :n, :n] = self._coef[:, 1:].transpose(3, 1, 2, 0)   # [j, k, i, m]
        G[:, n:, n] = pt
        self._stage = stage.reshape(n + 2 * n * n, (n + 1) * m)

    def _monomials(self, xt: np.ndarray, L=None, out=None) -> np.ndarray:
        """Monomial values in stage order, shape (m, ...), at points xt of shape
        (n, ...), by level into the workspace rows `L` (row 0 ones), then `out`."""
        L = np.ones((self._nrows,) + xt.shape[1:]) if L is None else L
        for rows, parents, v in self._levels:
            np.multiply(L[parents], xt[v], out=L[rows])
        return L.take(self._take, axis=0, out=out, mode="clip")   # "raise" buffers out


def _rhs(spray: SprayField, x, xt, Jt, xdot, Jdot, JdotP, work):
    """One RK4 stage: the slope of the stacked state Z = [x; J_top], into
    its views `xdot` and `Jdot`.

    `xt` is Z[:n], and `x` (B, n) its transpose, which the stage does not
    read: the benchmark's tracer keys its per-batch timings on its shape.
    `Jt` is Z[n:] as (n, 2n, B), J_top by rows; `Jdot` is the slope's J_top
    part, shaped like `Jt`, and `JdotP` its last n columns.  These views and
    those in `work` are built once per batch by `_flow_batch`.
    """
    y, L, V, YV_y, YV, XG, xg, GM, GP = work
    spray._monomials(xt, L, out=V)
    np.multiply(y, V, out=YV_y)                                # YV = [y; 1] (x) V
    np.matmul(spray._stage, YV, out=XG)
    xdot[...] = xg
    # Jdot_top = G [J_top; 0 I] = M J_top + [0 | P^T]
    np.einsum("jkb,kcb->jcb", GM, Jt, out=Jdot)
    JdotP += GP


def _flow_batch(spray: SprayField, xi: np.ndarray, t_final: float, steps: int):
    """Batched RK4 for the spray flow, its Jacobian and the realization form.

    `xi` is (B, 2n).  Integrates Z = [x; J_top] (the rows of J that move);
    y stays as given and the lower rows of J are [0 I], and neither is
    returned.  K accumulates the RK4 quadrature of J_top, and the form is
    assembled once at the end as
    Om = [[0, Kxx^T], [-Kxx, Kxy^T - Kxy]] = A - A^T with A = [[0, 0], -K],
    which is int_0^{t_final} J^T Omega_can J dt.

    `blowup_time` is the first check at which some column was non-finite,
    or None; the loop ends early only once every column is.

    Returns (x, J_top, Om, blowup_time): x (B, n) and J_top (B, n, 2n) are
    views of the final state, and Om is (B, 2n, 2n).
    """
    steps = _as_int(steps, "steps", 1)
    t_final = _as_real(t_final, "t_final")
    n = spray.n
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != 2 * n:
        raise ValueError(f"xi must have shape (B, {2 * n}), got {xi.shape}")
    B = xi.shape[0]
    Z = np.empty((n + 2 * n * n, B))
    Z[:n], Z[n:] = xi[:, :n].T, np.eye(n, 2 * n).reshape(-1, 1)
    y = np.ascontiguousarray(xi[:, n:].T)                      # y does not move
    YV = np.empty((n + 1, len(spray._take), B))
    XG = np.empty_like(Z)
    G = XG[n:].reshape(n, 2 * n, B)
    work = (y[:, None], np.ones((spray._nrows, B)), YV[n], YV[:n], YV.reshape(-1, B),
            XG, XG[:n], G[:, :n], G[:, n:])            # y, L, V, y (x) V, YV, XG, xdot, M, P^T
    k = list(np.empty((4,) + Z.shape))                        # the four stage slopes
    Zs, S = np.empty_like(Z), np.empty_like(Z)
    K = np.zeros_like(Z[n:])
    T = np.empty_like(K)
    h = t_final / steps
    h6 = h / 6
    check_every = max(1, steps // 32)
    blowup = None

    def views(X, out):
        """The views of one (state, slope) pair that a stage reads and writes."""
        Jdot = out[n:].reshape(n, 2 * n, B)
        return X[:n].T, X[:n], X[n:].reshape(n, 2 * n, B), out[:n], Jdot, Jdot[:, n:]

    first = views(Z, k[0])
    later = [(k[i], c, views(Zs, k[i + 1])) for i, c in enumerate((0.5 * h, 0.5 * h, h))]
    ZJ, SJ = Z[n:], S[n:]
    # a sample that leaves numeric range turns inf or nan in its own column
    # only; `blowup` records it and the caller reports it as skipped
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            _rhs(spray, *first, work)
            for slope, c, stage in later:
                np.multiply(slope, c, out=Zs)
                Zs += Z
                _rhs(spray, *stage, work)
            # in place, in the order of S = k1 + k2 + k3,
            # K += h (Z_J + (h/6) S_J), i.e. (h/6)(J_1 + 2 J_2 + 2 J_3 + J_4),
            # Z += (h/6) (S + k2 + k3 + k4)
            np.add(k[0], k[1], out=S)
            S += k[2]
            np.multiply(SJ, h6, out=T)
            T += ZJ
            T *= h
            K += T
            S += k[1]
            S += k[2]
            S += k[3]
            S *= h6
            Z += S
            if (s + 1) % check_every == 0 or s == steps - 1:
                finite = np.isfinite(Z).all(axis=0)
                if blowup is None and not finite.all():
                    blowup = (s + 1) * h
                if not finite.any():
                    break
        A = np.zeros((B, 2 * n, 2 * n))
        A[:, n:] = -K.reshape(n, 2 * n, B).transpose(2, 0, 1)
        return (Z[:n].T, Z[n:].reshape(n, 2 * n, B).transpose(2, 0, 1),
                A - A.transpose(0, 2, 1), blowup)


def _flow_point(V: SprayField, xi, t_final: float, steps: int) -> tuple:
    """(state, J, Om) from one point xi of shape (2n,), or ``FlowBlowupError``:
    the one place that puts y back, in state = [x; y], and assembles the full
    Jacobian J = [J_top; 0 I]."""
    xi, n = np.asarray(xi, dtype=float), V.n
    if xi.shape != (2 * n,):
        raise ValueError(f"xi must have shape ({2 * n},), got {xi.shape}")
    x, J_top, Om, blowup = _flow_batch(V, xi[None, :], t_final, steps)
    if blowup is not None:
        raise FlowBlowupError(blowup)
    return np.concatenate([x[0], xi[n:]]), np.vstack([J_top[0], np.eye(n, 2 * n, n)]), Om[0]


def flow_with_jacobian(V: SprayField, xi, t_final: float, steps: int):
    """RK4 flow of the spray from xi, with the variational equations."""
    return _flow_point(V, xi, t_final, steps)[:2]


def realization_form(pi: PolyMVF, xi, steps: int) -> np.ndarray:
    """omega_xi = int_0^1 (phi_t^* omega_can)_xi dt, as a 2n x 2n matrix."""
    return _flow_point(SprayField(pi), xi, 1.0, steps)[2]


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
        return asdict(self)


def verify_realization(pi: PolyMVF, n_samples: int, radius: float, seed: int,
                       steps: int) -> RealizationReport:
    """Check Theorem-0 properties of omega at seeded random points |xi| <= radius."""
    n_samples, seed = _as_int(n_samples, "n_samples", 1), _as_int(seed, "seed", 0)
    steps, radius = _as_int(steps, "steps", 1), _as_real(radius, "radius", positive=True)
    n = pi.nvars
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_samples, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = radius * rng.uniform(0.1, 1.0, size=(n_samples, 1))
    base = dirs * mags
    h = 1e-4 * radius

    # one batch: base points, 2*(2n) finite-difference shifts, zero-section points
    shifts = []
    for e in h * np.eye(2 * n):
        shifts.extend([base + e, base - e])
    zero_sec = np.concatenate([base[:, :n], np.zeros((n_samples, n))], axis=1)
    batch = np.concatenate([base] + shifts + [zero_sec], axis=0)

    *_, Om, blowup = _flow_batch(SprayField(pi), batch, 1.0, steps)
    finite = np.isfinite(Om).all(axis=(1, 2))
    groups = 2 + 4 * n  # base + shifts + zero-section
    ok = finite.reshape(groups, n_samples).all(axis=0)
    skipped = int(n_samples - ok.sum())
    if not ok.any():
        raise FlowBlowupError(blowup if blowup is not None else 1.0)
    Om = Om.reshape(groups, n_samples, 2 * n, 2 * n)[:, ok]

    omega = Om[0]
    skew_defect = np.abs(omega + omega.transpose(0, 2, 1)).max()
    dets = np.linalg.det(omega)
    det_min = float(np.abs(dets).min())

    omega_inv = np.linalg.inv(omega)
    Pi_base = pi.bivector_matrix(base[ok, :n])
    poisson_res = np.abs(omega_inv[:, :n, :n] - Pi_base).max()

    # d(omega) via central differences of the matrix entries
    grad = (Om[1:-1:2] - Om[2:-1:2]) / (2 * h)   # shifts +e_a, -e_a alternate
    d3 = [grad[a, :, b, c] + grad[b, :, c, a] + grad[c, :, a, b]
          for a, b, c in itertools.combinations(range(2 * n), 3)]
    domega_max = float(np.abs(d3).max()) if d3 else 0.0  # NaN propagates

    omega0 = Om[-1]
    closed = np.zeros_like(omega0)
    closed[:, :n, n:] = np.eye(n)
    closed[:, n:, :n] = -np.eye(n)
    closed[:, n:, n:] = Pi_base
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
    n_phi, n_theta = (_as_int(g, "grid", 32)
                      for g in (grid if isinstance(grid, (tuple, list)) else (grid, grid)))
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
    r, scale = _as_real(r, "radius r", positive=True), _as_real(scale, "scale")
    if scale == 0:
        raise ValueError("'scale' must be nonzero")

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
    r, h = _as_real(r, "radius r", positive=True), _as_real(h, "step h")
    if not 0 < h < r:
        raise ValueError("step h must be > 0 and below the radius r")
    if abs((r + h) - (r - h) - 2 * h) > 2e-6 * h:
        raise ValueError(f"radius r = {r:g} swamps the difference step h = {h:g}")
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
