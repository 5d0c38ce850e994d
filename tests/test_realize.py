"""Numerical realization: sprays, flows, the integrated form, sphere areas."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from poissonforge import (FlowBlowupError, PolyMVF, SprayField, dh_variation,
                          flow_with_jacobian, realization_form,
                          sphere_leaf_form, symplectic_area,
                          verify_realization)
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
    x, y, J, Om, blowup = _flow_batch(_pi_quad(), xi, 1.0, 50)
    assert blowup is None
    assert np.array_equal(y, xi[:, 3:])
    assert np.array_equal(J[:, 3:, :3], np.zeros((64, 3, 3)))
    assert np.array_equal(J[:, 3:, 3:], np.broadcast_to(np.eye(3), (64, 3, 3)))
    assert np.array_equal(Om, -Om.transpose(0, 2, 1))


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_domega_nan_is_reported(pi_so3):
    # a subnormal radius makes the finite-difference step 0, so d(omega) is 0/0
    rep = verify_realization(pi_so3, 2, 1e-320, 1, 20)
    assert rep.fd_step == 0.0
    assert math.isnan(rep.domega_max)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_blowup_detected():
    # xdot_2 = 3 x2^3 from x2 = 1 leaves [0,1] in finite time
    pi = PolyMVF(2, 2, {(1, 2): parse_poly("x2^3", 2)})
    xi = np.array([0.0, 1.0, 3.0, 0.0])
    with pytest.raises(FlowBlowupError):
        realization_form(pi, xi, 400)


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
