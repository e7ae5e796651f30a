"""Minimal-torus specialization tests with quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from eqtorus.maps import CircleMap, conformality_residual, harmonicity_residual
from eqtorus.otsuki import (
    OMEGA_AT_0,
    OMEGA_AT_1,
    OtsukiParams,
    omega_fn,
    otsuki_map,
    otsuki_tau_triple,
    solve_otsuki,
)
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    classify_params,
    integral_residuals,
    solve_tau,
)


def omega_quadrature(m):
    """Direct defining integral of Omega as an independent oracle."""
    n = -m / (1.0 - m)

    def f(t):
        return 1.0 / ((1.0 - n * math.sin(t) ** 2)
                      * math.sqrt(1.0 - m * math.sin(t) ** 2))

    val, _ = quad(f, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return math.sqrt((2.0 - m) / (1.0 - m)) * val


class TestOmega:
    def test_endpoints(self):
        assert omega_fn(0.0) == OMEGA_AT_0 == math.sqrt(2) * math.pi / 2
        assert omega_fn(1.0) == OMEGA_AT_1 == math.pi / 2

    def test_endpoint_approach(self):
        # the closest representable arguments stay within 1e-6 of the limits
        assert abs(omega_fn(1e-12) - OMEGA_AT_0) < 1e-6
        assert abs(omega_fn(1.0 - 1.2e-16) - OMEGA_AT_1) < 1e-6

    def test_interior_value_and_order(self):
        v = omega_fn(0.3)
        assert OMEGA_AT_1 < v < OMEGA_AT_0
        assert v > omega_fn(0.6)

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.7, 0.95])
    def test_against_quadrature(self, m):
        assert omega_fn(m) == pytest.approx(omega_quadrature(m), rel=1e-11)

    def test_monotone_decreasing(self):
        ms = np.linspace(1e-4, 1 - 1e-8, 64)
        vals = [omega_fn(m) for m in ms]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestSolveOtsuki:
    def test_two_thirds(self):
        ot = solve_otsuki(2, 3)
        assert omega_fn(ot.m_star) == pytest.approx(2 * math.pi / 3, abs=1e-12)
        # independent oracle root
        m_oracle = brentq(lambda m: omega_quadrature(m) - 2 * math.pi / 3,
                          0.5, 0.99, xtol=1e-13)
        assert ot.m_star == pytest.approx(m_oracle, abs=1e-9)
        assert ot.b_t >= 1.0

    def test_boundary_ratios_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            solve_otsuki(1, 2)   # ratio exactly 1/2: non-full boundary
        with pytest.raises(InfeasibleParametersError):
            solve_otsuki(3, 4)   # 0.75 > sqrt(2)/2
        with pytest.raises(InfeasibleParametersError):
            solve_otsuki(4, 6)   # not coprime

    def test_more_ratios_feasible(self):
        for pt, qt in [(3, 5), (5, 8), (7, 10)]:
            ot = solve_otsuki(pt, qt)
            assert 0.0 < ot.m_star < 1.0
            assert ot.b_t >= 1.0


@pytest.fixture(scope="module")
def torus():
    return otsuki_map(solve_otsuki(2, 3))


class TestOtsukiMap:
    def test_limit_regime_rejected(self):
        # p = 1, q = 2 is the first limit case (2p = q): no minimal torus
        with pytest.raises(ValueError, match="first_limit"):
            otsuki_map(OtsukiParams(p_t=1, q_t=2, m_star=0.5, b_t=2.0))

    def test_conformality(self, torus):
        point, params, tau, prof = torus
        diag, offdiag = conformality_residual(prof)
        assert diag <= 1e-8 and offdiag <= 1e-8

    def test_r_plus_a_vanishes(self, torus):
        point, params, tau, prof = torus
        assert params.r + point.a == 0.0
        assert tau.tau1 + tau.tau2 == pytest.approx(1.0, abs=1e-15)
        assert tau.tau3 == 1.0

    def test_consistent_with_full_solver(self, torus):
        point, params, tau, prof = torus
        solved = solve_tau(point, params)
        assert solved.m == pytest.approx(tau.m, abs=1e-11)
        assert solved.tau1 == pytest.approx(tau.tau1, abs=1e-11)
        assert max(integral_residuals(tau, point, params)) < 1e-9

    def test_harmonic(self, torus):
        _, _, _, prof = torus
        assert harmonicity_residual(prof, n=400) <= 1e-10

    @pytest.mark.parametrize("pq", [(2, 3), (3, 5), (5, 8), (7, 10), (12, 17),
                                    (70, 99), (99, 197)])
    def test_harmonic_up_to_m_near_one(self, pq):
        # 99/197 has m* = 1 - 1.2e-6: the closed-form second derivatives
        # stay exact where a difference stencil measured itself (6e-5)
        _, _, _, prof = otsuki_map(solve_otsuki(*pq))
        assert harmonicity_residual(prof, n=500) <= 1e-10

    def test_hopf_differential_vanishes(self, torus):
        # minimality means the Hopf differential is zero: A = 4 pi^2, d = 0
        from eqtorus.maps import hopf_constants

        _, _, tau, _ = torus
        hc = hopf_constants(tau)
        assert hc.h_re == pytest.approx(0.0, abs=1e-12)
        assert hc.h_im == 0.0

    def test_profile_period_in_theta(self, torus):
        # as a curve over theta, the latitude repeats with period 2 pi p/q
        point, params, tau, prof = torus
        period = 2 * math.pi * params.p / params.q

        def y_of_theta(th):
            return brentq(lambda y: float(prof.theta(y)) - th, -1e-9,
                          point.b + 1e-9, xtol=1e-13)

        for th in (0.3, 0.9, 1.7):
            c2_here = float(prof.cos2_phi(y_of_theta(th)))
            c2_shift = float(prof.cos2_phi(y_of_theta(th + period)))
            assert c2_shift == pytest.approx(c2_here, abs=1e-9)

    def test_cover_scales_energy(self):
        from eqtorus.functional import lambda_bar_closed_form

        ot = solve_otsuki(2, 3)
        e1 = lambda_bar_closed_form(*_reorder(otsuki_map(ot, k=1)))
        e2 = lambda_bar_closed_form(*_reorder(otsuki_map(ot, k=2)))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_nonminimal_control(self):
        point = ModuliPoint(0.25, 2.1)
        params = classify_params(point, 2, 3, 0)
        tau = solve_tau(point, params)
        from eqtorus.maps import build_profiles

        diag, offdiag = conformality_residual(build_profiles(tau, params, point))
        assert diag > 1e-3 and offdiag > 1e-3

    def test_clifford_conformal(self):
        cm = CircleMap(ModuliPoint(0, 1.0), 1, 0, math.pi / 4)
        diag, offdiag = conformality_residual(cm)
        assert diag <= 1e-10 and offdiag <= 1e-10


def _reorder(quad):
    point, params, tau, _ = quad
    return tau, params, point


def test_tau_triple_closed_form():
    t = otsuki_tau_triple(0.5)
    assert t.tau1 + t.tau2 == pytest.approx(1.0, abs=1e-15)
    assert t.tau3 == 1.0
    assert t.A == pytest.approx(4 * math.pi**2, rel=1e-15)
    assert t.d == 0.0
    assert t.n0 == pytest.approx(-1.0, rel=1e-15)
    assert t.n1 == 0.5
