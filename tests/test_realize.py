"""Numerical realization: sprays, flows, the integrated form, sphere areas."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, expm_frechet

from poissonforge import (FlowBlowupError, PolyMVF, SprayField, dh_variation,
                          flow_with_jacobian, linear_poisson, preset,
                          realization_form, sphere_leaf_form, symplectic_area,
                          verify_realization)
from poissonforge import realize
from poissonforge.polyalg import Poly, parse_poly
from poissonforge.realize import _flow_batch


def _pi_canonical():
    """Constant symplectic bivector on R^2."""
    return PolyMVF(2, 2, {(1, 2): Poly.constant(2, 1)})


def _pi_quad():
    """The quadratic Poisson bivector (2 x3^2, -x2^2, -x1^2) of the benchmark."""
    return PolyMVF(3, 2, {(1, 2): parse_poly("2*x3^2", 3),
                          (1, 3): parse_poly("-x2^2", 3),
                          (2, 3): parse_poly("-x1^2", 3)})


def test_spray_matches_bivector_matrix(pi_so3):
    rng = np.random.default_rng(35)
    for pi in (pi_so3, _pi_quad()):
        spray = SprayField(pi)
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(spray.pi_matrix(x), pi.bivector_matrix(x), rtol=1e-14)
        y = rng.normal(size=(5, 3))
        # xdot_j = sum_i pi_ij(x) y_i
        expect = np.einsum("bij,bi->bj", pi.bivector_matrix(x), y)
        np.testing.assert_allclose(spray(x, y), expect, rtol=1e-14)


def test_spray_derivative_tables(pi_so3):
    rng = np.random.default_rng(36)
    h = 1e-6
    for pi in (pi_so3, _pi_quad()):
        spray = SprayField(pi)
        x = rng.normal(size=(2, 4, 3))
        dP = spray.dpi_matrices(x)
        assert dP.shape == (2, 4, 3, 3, 3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (pi.bivector_matrix(x + e) - pi.bivector_matrix(x - e)) / (2 * h)
            # entry [k, i, j] is d(pi_ij)/dx_k
            np.testing.assert_allclose(dP[..., k, :, :], fd, atol=1e-8)


def test_flow_of_zero_structure_is_identity():
    pi = PolyMVF.zero(2, 2)
    xi = np.array([0.3, -0.2, 0.5, 0.1])
    out, J = flow_with_jacobian(SprayField(pi), xi, 1.0, 50)
    np.testing.assert_allclose(out, xi, atol=1e-14)
    np.testing.assert_allclose(J, np.eye(4), atol=1e-14)


def test_momentum_is_conserved(pi_so3):
    xi = np.array([0.1, 0.05, -0.04, 0.2, -0.1, 0.15])
    out, _ = flow_with_jacobian(SprayField(pi_so3), xi, 1.0, 200)
    np.testing.assert_allclose(out[3:], xi[3:], atol=1e-14)


def test_rk4_convergence_order(pi_so3):
    xi = np.array([0.3, -0.2, 0.25, 0.4, 0.1, -0.3])
    ref, _ = flow_with_jacobian(SprayField(pi_so3), xi, 1.0, 4096)
    errs = []
    for steps in (16, 32, 64):
        out, _ = flow_with_jacobian(SprayField(pi_so3), xi, 1.0, steps)
        errs.append(np.linalg.norm(out - ref))
    slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert abs(-slope - 4.0) < 0.2


def test_realization_form_convergence_order(pi_so3):
    xi = np.array([0.3, -0.2, 0.25, 0.4, 0.1, -0.3])
    ref = realization_form(pi_so3, xi, 4096)
    errs = [np.linalg.norm(realization_form(pi_so3, xi, steps) - ref)
            for steps in (16, 32, 64)]
    slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert abs(-slope - 4.0) < 0.2


def _oracle(pi, xi, h=1e-4):
    """The full, unreduced flow of (x, y, J, Om') with Om' = int J^T Omega J dt,
    by DOP853, with d(pi)/dx from central differences of bivector_matrix."""
    n = pi.nvars
    Omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def f(t, u):
        x, y = u[:n], u[n:2 * n]
        J = u[2 * n:2 * n + 4 * n * n].reshape(2 * n, 2 * n)
        P = pi.bivector_matrix(x)
        A = np.zeros((2 * n, 2 * n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            dP = (pi.bivector_matrix(x + e) - pi.bivector_matrix(x - e)) / (2 * h)
            A[:n, k] = dP.T @ y
        A[:n, n:] = P.T
        return np.concatenate([P.T @ y, np.zeros(n), (A @ J).ravel(),
                               (J.T @ Omega @ J).ravel()])

    u0 = np.concatenate([xi, np.eye(2 * n).ravel(), np.zeros(4 * n * n)])
    sol = solve_ivp(f, (0.0, 1.0), u0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    u = sol.y[:, -1]
    return (u[:2 * n], u[2 * n:2 * n + 4 * n * n].reshape(2 * n, 2 * n),
            u[2 * n + 4 * n * n:].reshape(2 * n, 2 * n))


@pytest.mark.parametrize("name", ["so3", "quad"])
def test_flow_and_form_match_unreduced_oracle(name, pi_so3):
    pi = pi_so3 if name == "so3" else _pi_quad()
    rng = np.random.default_rng(41)
    for _ in range(3):
        xi = 0.3 * rng.normal(size=6)
        state, J, Om = _oracle(pi, xi)
        out, J_rk4 = flow_with_jacobian(SprayField(pi), xi, 1.0, 400)
        np.testing.assert_allclose(out, state, rtol=0, atol=1e-9)
        np.testing.assert_allclose(J_rk4, J, rtol=0, atol=1e-9)
        np.testing.assert_allclose(realization_form(pi, xi, 400), Om, rtol=0, atol=1e-9)


def test_reduced_state_structure():
    """y is carried unchanged, the lower rows of J are exactly [0 I] and the
    integrated form is exactly skew, for every point of a batch."""
    rng = np.random.default_rng(42)
    xi = 0.4 * rng.normal(size=(64, 6))
    x, y, J, Om, blowup = _flow_batch(SprayField(_pi_quad()), xi, 1.0, 50)
    assert blowup is None
    assert np.array_equal(y, xi[:, 3:])
    assert np.array_equal(J[:, 3:, :3], np.zeros((64, 3, 3)))
    assert np.array_equal(J[:, 3:, 3:], np.broadcast_to(np.eye(3), (64, 3, 3)))
    assert np.array_equal(Om, -Om.transpose(0, 2, 1))


def _reference_flow_batch(pi, xi, t_final, steps):
    """The two-array RK4 of x and J_top, with K the RK4 weights applied to the
    stage values of J_top: the integrator before the stacked state, kept as
    an oracle.  Returns (x, J, Om)."""
    spray = SprayField(pi)
    n, coef = spray.n, spray._coef
    m = coef.shape[0]
    pt = coef[:, 0].transpose(2, 1, 0)
    PT = pt.reshape(n * n, m)
    XM = np.concatenate([pt.reshape(n, n * m),
                         coef[:, 1:].transpose(3, 1, 2, 0).reshape(n * n, n * m)])

    def rhs(x, yt, Jt):
        V = spray._monomials(x.T)
        xm = XM @ (yt[:, None, :] * V[None, :, :]).reshape(-1, V.shape[1])
        M = xm[n:].reshape(n, n, -1)
        Jdot = M[:, 0, None, :] * Jt[None, 0]
        for k in range(1, n):
            Jdot += M[:, k, None, :] * Jt[None, k]
        Jdot[:, n:] += (PT @ V).reshape(n, n, -1)
        return xm[:n].T, Jdot

    B = xi.shape[0]
    x = xi[:, :n].copy()
    yt = np.ascontiguousarray(xi[:, n:].T)
    Jt = np.zeros((n, 2 * n, B))
    Jt[:, :n] = np.eye(n)[:, :, None]
    K = np.zeros_like(Jt)
    h = t_final / steps
    for _ in range(steps):
        k1 = rhs(x, yt, Jt)
        J2 = Jt + 0.5 * h * k1[1]
        k2 = rhs(x + 0.5 * h * k1[0], yt, J2)
        J3 = Jt + 0.5 * h * k2[1]
        k3 = rhs(x + 0.5 * h * k2[0], yt, J3)
        J4 = Jt + h * k3[1]
        k4 = rhs(x + h * k3[0], yt, J4)
        x += (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        K += (h / 6) * (Jt + 2 * J2 + 2 * J3 + J4)
        Jt += (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    J = np.zeros((B, 2 * n, 2 * n))
    J[:, :n] = Jt.transpose(2, 0, 1)
    J[:, n:, n:] = np.eye(n)
    Kxx = K[:, :n].transpose(2, 0, 1)
    Kxy = K[:, n:].transpose(2, 0, 1)
    Om = np.zeros((B, 2 * n, 2 * n))
    Om[:, :n, n:] = Kxx.transpose(0, 2, 1)
    Om[:, n:, :n] = -Kxx
    Om[:, n:, n:] = Kxy.transpose(0, 2, 1) - Kxy
    return x, J, Om


def _pi_cubic():
    """x1^3 d1^d2 + x1 x2^2 x3 d2^d3 on R^4, not Poisson: its monomials need the
    helper parents x1, x2, x1 x2 and x2^2, which no coefficient uses."""
    return PolyMVF(4, 2, {(1, 2): parse_poly("x1^3", 4), (2, 3): parse_poly("x1*x2^2*x3", 4)})


@pytest.mark.parametrize("name", ["so3", "su3", "quad", "cubic"])
def test_stacked_integrator_matches_two_array_reference(name):
    pi = {"quad": _pi_quad, "cubic": _pi_cubic}.get(name, lambda: linear_poisson(preset(name)))()
    n = pi.nvars
    xi = 0.3 * np.random.default_rng(43).normal(size=(64, 2 * n))
    x, y, J, Om, blowup = _flow_batch(SprayField(pi), xi, 1.0, 60)
    assert blowup is None
    x_ref, J_ref, Om_ref = _reference_flow_batch(pi, xi, 1.0, 60)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(J, J_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(Om, Om_ref, rtol=0, atol=1e-14)


def _stage_exponents(pi):
    """The exponents of pi's coefficients and of their first partials, sorted."""
    n, out = pi.nvars, set()
    for poly in pi.terms.values():
        for e in poly.terms:
            out.add(e)
            out.update(e[:k] + (e[k] - 1,) + e[k + 1:] for k in range(n) if e[k])
    return sorted(out)


def _random_bivector(rng, n, max_deg):
    terms = {}
    for ij in itertools.combinations(range(1, n + 1), 2):
        monos = {}
        for _ in range(rng.integers(0, 3)):
            e = np.bincount(rng.integers(0, n, size=rng.integers(0, max_deg + 1)), minlength=n)
            monos[tuple(int(p) for p in e)] = Fraction(int(rng.integers(1, 5)))
        if monos:
            terms[ij] = Poly(n, monos)
    return PolyMVF(n, 2, terms)


def test_monomials_match_powers():
    """The recipe's values, in stage order, against prod_k x_k^e_k, on random
    fields with n <= 8 and degree <= 4, a constant term and the zero field."""
    rng = np.random.default_rng(44)
    fields = [PolyMVF.zero(3, 2), _pi_canonical(), _pi_cubic(),
              PolyMVF(3, 2, {(1, 2): parse_poly("2 + x1^2*x3^2", 3)})]
    fields += [_random_bivector(rng, int(rng.integers(2, 9)), 4) for _ in range(60)]
    for pi in fields:
        exps = np.array(_stage_exponents(pi), dtype=float).reshape(-1, pi.nvars)
        x = rng.uniform(-1.5, 1.5, size=(7, pi.nvars))
        expect = np.prod(x[None, :, :] ** exps[:, None, :], axis=2)
        V = SprayField(pi)._monomials(x.T)
        assert V.shape == expect.shape
        np.testing.assert_allclose(V, expect, rtol=1e-14, atol=0)
        # any trailing shape of points, as pi_matrix passes them
        np.testing.assert_array_equal(
            SprayField(pi)._monomials(x.T.reshape(pi.nvars, 7, 1))[..., 0], V)


def _lie_poisson_closed_form(spec, xi, nodes=24):
    """Exact flow of the spray of a linear bivector, with no time-stepping.

    pi_ij = sum_k c_ij^k x_k makes xdot = A x with A_jk = sum_i y_i c_ij^k
    constant, so x(t) = e^{tA} x0, Jxx = e^{tA} and column i of Jxy is
    L(tA, t C_i) x0, L the Frechet derivative of expm and C_i[j, k] = c_ij^k.
    omega = int_0^1 J^T Omega_can J dt by Gauss-Legendre quadrature (the
    integrand is entire in t).  Returns (x(1), J(1), omega).
    """
    n = spec.dim
    c = np.zeros((n, n, n))
    for (i, j, k), v in spec.C.items():
        c[i - 1, j - 1, k - 1] = float(v)
        c[j - 1, i - 1, k - 1] = -float(v)
    x0, y = xi[:n], xi[n:]
    A = np.einsum("i,ijk->jk", y, c)
    Omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def jacobian(t):
        J = np.eye(2 * n)
        J[:n, :n] = expm(t * A)
        for i in range(n):
            J[:n, n + i] = expm_frechet(t * A, t * c[i], compute_expm=False) @ x0
        return J

    u, w = np.polynomial.legendre.leggauss(nodes)
    omega = sum(0.5 * wq * jacobian(t).T @ Omega @ jacobian(t)
                for t, wq in zip(0.5 * (u + 1), w))
    J1 = jacobian(1.0)
    return J1[:n, :n] @ x0, J1, omega


def _phase_points(n):
    """Points xi in R^{2n} with |xi| <= 0.5."""
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.tuples(st.lists(coords, min_size=2 * n, max_size=2 * n),
                     st.floats(0.0, 0.5)).filter(lambda p: any(p[0])).map(
        lambda p: p[1] * np.array(p[0]) / np.linalg.norm(p[0]))


@pytest.mark.parametrize("name", ["so3", "sl2", "su3"])
def test_rk4_matches_lie_poisson_closed_form(name):
    spec = preset(name)
    pi = linear_poisson(spec)
    spray = SprayField(pi)

    @settings(max_examples=4, derandomize=True, database=None, deadline=None)
    @given(_phase_points(spec.dim))
    def check(xi):
        x1, J1, omega = _lie_poisson_closed_form(spec, xi)
        assert np.abs(realization_form(pi, xi, 2000) - omega).max() <= 1e-13
        # at 100 steps the RK4 truncation error reaches 2e-10 on sl2 at |xi| = 0.5;
        # above roundoff, halving the step divides it by 2^4
        e50, e100 = (np.abs(realization_form(pi, xi, s) - omega).max() for s in (50, 100))
        assert e100 <= 3e-10
        assert e50 < 1e-12 or 14 < e50 / e100 < 18
        state, J = flow_with_jacobian(spray, xi, 1.0, 100)
        assert np.abs(state - np.concatenate([x1, xi[spec.dim:]])).max() <= 3e-10
        assert np.abs(J - J1).max() <= 3e-10

    check()


@pytest.mark.parametrize("name", ["so3", "sl2", "su3"])
def test_lie_poisson_closed_form_satisfies_theorem_0(name):
    """The oracle's own omega, with no integrator: the base projection is a
    Poisson map and omega on the zero section is [[0, I], [-I, pi(x)]]."""
    spec = preset(name)
    pi = linear_poisson(spec)
    n = spec.dim
    rng = np.random.default_rng(44)
    for _ in range(3):
        xi = 0.4 * rng.uniform(-1, 1, size=2 * n)
        P = pi.bivector_matrix(xi[None, :n])[0]
        _, _, omega = _lie_poisson_closed_form(spec, xi)
        np.testing.assert_allclose(np.linalg.inv(omega)[:n, :n], P, rtol=0, atol=1e-12)
        _, _, omega0 = _lie_poisson_closed_form(spec, np.concatenate([xi[:n], np.zeros(n)]))
        expected = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), P]])
        np.testing.assert_allclose(omega0, expected, rtol=0, atol=1e-14)


def test_rhs_runs_once_per_stage_through_the_module_global(monkeypatch):
    """The benchmark's tracer rebinds `realize._rhs` by name and keys its
    per-batch timings on the shape of the second argument."""
    shapes = []
    original = realize._rhs

    def counting(*args):
        shapes.append(args[1].shape)
        return original(*args)

    monkeypatch.setattr(realize, "_rhs", counting)
    for B, steps in ((7, 13), (140, 5)):
        shapes.clear()
        xi = 0.2 * np.random.default_rng(B).normal(size=(B, 6))
        _flow_batch(SprayField(_pi_quad()), xi, 1.0, steps)
        assert shapes == [(B, 3)] * (4 * steps)


def test_zero_section_form_closed_form(pi_so3):
    rng = np.random.default_rng(37)
    for _ in range(5):
        x = 0.2 * rng.normal(size=3)
        xi = np.concatenate([x, np.zeros(3)])
        Om = realization_form(pi_so3, xi, 400)
        P = pi_so3.bivector_matrix(x[None, :])[0]
        expected = np.block([[np.zeros((3, 3)), np.eye(3)],
                             [-np.eye(3), P]])
        np.testing.assert_allclose(Om, expected, atol=1e-10)


def test_constant_symplectic_structure_realizes_exactly():
    rep = verify_realization(_pi_canonical(), 20, 0.3, 38, 300)
    assert rep.poisson_residual_max < 1e-10
    assert rep.domega_max < 1e-8
    assert rep.det_min > 0.5
    assert rep.skipped == 0


def test_report_json_fields(pi_so3):
    rep = verify_realization(pi_so3, 5, 0.1, 39, 200)
    obj = rep.to_json_obj()
    for key in ("n_samples", "seed", "steps", "radius", "fd_step",
                "skew_defect_max", "domega_max", "det_min",
                "poisson_residual_max", "zero_section_residual", "skipped"):
        assert key in obj
    assert obj["n_samples"] == 5 and obj["skipped"] == 0


def test_bad_arguments_rejected(pi_so3):
    xi = np.zeros(6)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps"):
            realization_form(pi_so3, xi, steps)
        with pytest.raises(ValueError, match="steps"):
            verify_realization(pi_so3, 2, 0.1, 1, steps)
    with pytest.raises(ValueError, match="n_samples"):
        verify_realization(pi_so3, 0, 0.1, 1, 20)
    for radius in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="radius"):
            verify_realization(pi_so3, 2, radius, 1, 20)


def test_steps_must_be_an_int(pi_so3):
    xi = np.zeros(6)
    for steps in (True, False, 20.0, "20", None):
        with pytest.raises(ValueError, match="steps"):
            realization_form(pi_so3, xi, steps)
        with pytest.raises(ValueError, match="steps"):
            flow_with_jacobian(SprayField(pi_so3), xi, 1.0, steps)
        with pytest.raises(ValueError, match="steps"):
            verify_realization(pi_so3, 2, 0.1, 1, steps)
    assert realization_form(pi_so3, xi, np.int64(3)).shape == (6, 6)


def test_batch_shape_is_checked_not_broadcast(pi_so3):
    # a width-(n+1) batch would broadcast into [y; 1] if it were not checked
    for shape in ((4, 4), (4, 7), (4, 5), (6,), (2, 4, 6), ()):
        with pytest.raises(ValueError, match=r"\(B, 6\)"):
            _flow_batch(SprayField(pi_so3), np.zeros(shape), 1.0, 10)


def test_single_point_shape_is_checked(pi_so3):
    spray = SprayField(pi_so3)
    for shape in ((2, 6), (1, 6), (5,), (7,), ()):
        xi = np.zeros(shape)
        with pytest.raises(ValueError, match=r"\(6,\)"):
            realization_form(pi_so3, xi, 10)
        with pytest.raises(ValueError, match=r"\(6,\)"):
            flow_with_jacobian(spray, xi, 1.0, 10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_domega_nan_is_reported(pi_so3):
    # a subnormal radius makes the finite-difference step 0, so d(omega) is 0/0
    rep = verify_realization(pi_so3, 2, 1e-320, 1, 20)
    assert rep.fd_step == 0.0
    assert math.isnan(rep.domega_max)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_blowup_detected():
    # xdot_2 = 3 x2^3 from x2 = 1 leaves [0,1] in finite time
    pi = PolyMVF(2, 2, {(1, 2): parse_poly("x2^3", 2)})
    xi = np.array([0.0, 1.0, 3.0, 0.0])
    with pytest.raises(FlowBlowupError):
        realization_form(pi, xi, 400)


def _blowup_plane():
    """x1^2 d1^d2: from x1 = 2, y2 = -2, xdot_1 = 2 x1^2 leaves range at t = 1/4."""
    return PolyMVF(2, 2, {(1, 2): parse_poly("x1^2", 2)})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_leaves_the_rest_of_the_batch_intact():
    spray = SprayField(_blowup_plane())
    survivor = np.array([0.3, 0.1, 0.2, 0.4])
    x, _, J, Om, blowup = _flow_batch(spray, np.array([survivor, [2.0, 0.0, 0.0, -2.0]]),
                                      1.0, 400)
    assert 0.25 <= blowup < 0.35
    assert not np.isfinite(Om[1]).all()
    x1, _, J1, Om1, blowup1 = _flow_batch(spray, survivor[None], 1.0, 400)
    assert blowup1 is None
    for got, solo in ((x[0], x1[0]), (J[0], J1[0]), (Om[0], Om1[0])):
        assert np.abs(got - solo).max() <= 1e-14


def test_flow_with_jacobian_uses_the_given_field(monkeypatch, pi_so3):
    spray = SprayField(pi_so3)
    compiled = []
    init = SprayField.__init__

    def counting(self, pi):
        compiled.append(pi)
        init(self, pi)

    monkeypatch.setattr(SprayField, "__init__", counting)
    xi = np.full(6, 0.1)
    flow_with_jacobian(spray, xi, 1.0, 10)
    assert compiled == []
    realization_form(pi_so3, xi, 10)
    verify_realization(pi_so3, 2, 0.1, 1, 10)
    assert len(compiled) == 2


class TestSphereAreas:
    def test_leaf_form_is_r_cos_theta(self, pi_so3):
        for r in (0.5, 1.0, 2.0):
            f = sphere_leaf_form(pi_so3, r)
            phi = np.linspace(0, 2 * math.pi, 13)
            theta = np.linspace(-1.4, 1.4, 11)
            vals = f(phi[:, None], theta[None, :])
            expect = r * np.cos(theta)[None, :] * np.ones((13, 1))
            np.testing.assert_allclose(vals, expect, atol=1e-12)

    def test_area_grid_forms(self, pi_so3):
        f = sphere_leaf_form(pi_so3, 1.0)
        a_square = symplectic_area(f, 64)
        a_rect = symplectic_area(f, (64, 256))
        assert abs(a_square - 4 * math.pi) < 2e-3
        assert abs(a_rect - 4 * math.pi) < 1e-4

    def test_area_rejects_coarse_grid(self, pi_so3):
        f = sphere_leaf_form(pi_so3, 1.0)
        with pytest.raises(ValueError):
            symplectic_area(f, 16)
        with pytest.raises(ValueError):
            symplectic_area(f, (64, 16))

    def test_dh_variation_second_radius(self):
        d1, d2 = dh_variation(2.0, 1e-5)
        assert abs(d1 - (-16 * math.pi / 25)) < 1e-4
        assert abs(d2 - 4 * math.pi) < 1e-4

    def test_dh_variation_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            dh_variation(0.0, 1e-5)

    def test_dh_variation_rejects_bad_step(self):
        # r - h must stay a radius: h = 1.0 would take a leaf of radius -0.5
        for h in (0.0, -1e-5, math.nan, math.inf, -math.inf, 0.5, 1.0):
            with pytest.raises(ValueError, match="step h"):
                dh_variation(0.5, h)

    def test_dh_variation_rejects_a_radius_that_swamps_the_step(self):
        # past 2^18 the spacing of floats near r moves (r + h) - (r - h)
        # off 2h by more than 1e-6 relative; at 1e12, r + h rounds to r
        d1, d2 = dh_variation(2.0**18, 1e-5)
        assert abs(d2 - 4 * math.pi) < 1e-4
        for r in (2.0**18 + 1, 1e6, 1e12):
            with pytest.raises(ValueError, match="radius r = "):
                dh_variation(r, 1e-5)
