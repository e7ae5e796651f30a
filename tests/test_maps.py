"""Map construction tests: profiles, equivariance, harmonicity, Hopf data."""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from eqtorus import maps
from eqtorus.maps import (
    CircleMap,
    build_profiles,
    export_mesh,
    harmonicity_residual,
    hopf_constants,
    hopf_grid_residual,
)
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    Regime,
    classify_params,
    solve_tau,
)

CASES = {
    "nonlimit": (0.25, 2.1, 2, 3, 0),
    "first": (0.25, 1.25, 1, 2, 0),
    "second": (0.5, 2.0, 2, 3, 1),
    "hybrid": (0.0, 1.3, 1, 2, 1),
    "one_one_zero": (0.3, 1.4, 1, 1, 0),
}


@pytest.fixture(scope="module")
def built():
    out = {}
    for name, (a, b, p, q, r) in CASES.items():
        point = ModuliPoint(a, b)
        params = classify_params(point, p, q, r)
        tau = solve_tau(point, params)
        out[name] = (point, params, tau, build_profiles(tau, params, point))
    return out


class TestProfiles:
    def test_values_at_origin(self, built):
        point, params, tau, prof = built["nonlimit"]
        assert float(prof.cos2_phi(0.0)) == pytest.approx(tau.tau1, abs=1e-14)
        assert float(prof.phi(0.0)) == pytest.approx(
            math.acos(math.sqrt(tau.tau1)), rel=1e-12)
        assert float(prof.theta(0.0)) == 0.0
        assert float(prof.alpha(0.0)) == 0.0

    def test_angle_quasiperiodicity(self, built):
        point, params, tau, prof = built["nonlimit"]
        y = np.linspace(-1.0, 1.0, 57)
        np.testing.assert_allclose(prof.theta(y + point.b),
                                   prof.theta(y) + 2 * math.pi * params.p,
                                   atol=1e-10)
        rpa = params.r_plus_a(point)
        np.testing.assert_allclose(prof.alpha(y + point.b),
                                   prof.alpha(y) - 2 * math.pi * rpa,
                                   atol=1e-10)

    def test_first_limit_branch_formula(self, built):
        point, params, tau, prof = built["first"]
        assert params.regime is Regime.FIRST_LIMIT
        y = np.linspace(0.0, point.b, 41)
        from eqtorus.elliptic import jacobi_sn_cn_dn_am

        sn = jacobi_sn_cn_dn_am(2 * math.pi * math.sqrt(tau.tau3) * y, tau.m)[0]
        np.testing.assert_allclose(np.cos(prof.phi(y)),
                                   math.sqrt(tau.tau2) * sn, atol=1e-13)
        # theta is frozen in this branch
        assert np.max(np.abs(prof.theta(y))) == 0.0

    def test_cos2_phi_period_and_range(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            per = point.b / params.q
            y = np.linspace(0.0, per, 211)
            np.testing.assert_allclose(prof.cos2_phi(y + per), prof.cos2_phi(y),
                                       atol=1e-11)
            # strictly smaller period fails: b/(2q) reflects, not repeats
            half_shift = np.abs(prof.cos2_phi(y + per / 2) - prof.cos2_phi(y))
            assert np.max(half_shift) > 1e-3
            c2 = prof.cos2_phi(np.linspace(0.0, point.b, 4001))
            assert float(np.min(c2)) == pytest.approx(tau.tau1, abs=1e-7)
            assert float(np.max(c2)) == pytest.approx(tau.tau2, abs=1e-7)

    def test_density_positive_and_energy_identity(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.0, point.b, 617)
            rho = prof.rho(y)
            assert np.all(rho > 0.0)
            c2 = prof.cos2_phi(y)
            lhs = 0.5 * (prof.dphi(y) ** 2 + prof.dtheta(y) ** 2 * c2
                         + (prof.dalpha(y) ** 2 + 4 * math.pi**2) * (1.0 - c2))
            np.testing.assert_allclose(lhs, rho, atol=1e-9)

    def test_first_integrals(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.0, point.b, 401)
            c2 = prof.cos2_phi(y)
            np.testing.assert_allclose(prof.dtheta(y) * c2, tau.c, atol=1e-9)
            np.testing.assert_allclose(prof.dalpha(y) * (1 - c2), tau.d, atol=1e-9)

    def test_latitude_ode_polynomial(self, built):
        # (tau')^2 = 16 pi^2 P(tau) for tau = cos^2 phi
        point, params, tau, prof = built["nonlimit"]
        y = np.linspace(0.0, point.b, 301)
        h = 1e-6
        dC = (prof.cos2_phi(y + h) - prof.cos2_phi(y - h)) / (2 * h)
        t = prof.cos2_phi(y)
        A, c, d = tau.A, tau.c, tau.d
        P = (4 * math.pi**2 * t**3 - (A + 4 * math.pi**2) * t**2
             + (c * c - d * d + A) * t - c * c) / (4 * math.pi**2)
        np.testing.assert_allclose(dC * dC, 16 * math.pi**2 * P, atol=1e-6)

    def test_d2y_matches_differenced_dy(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.013, point.b, 97)
            h = 1e-5 * point.b
            x = 0.37
            for d2, up, down in zip(prof.d2y_values(x, y),
                                    prof.dy_values(x, y + h),
                                    prof.dy_values(x, y - h)):
                fd = (up - down) / (2 * h)
                err = np.max(np.abs(d2 - fd))
                assert err <= 1e-6 * np.max(np.abs(d2)), name

    def test_latitude_signs_and_unit_norm(self, built):
        # cos phi is signed where tau1 = 0, sin phi where tau2 = 1
        signed = {"first": (True, False), "second": (False, True),
                  "hybrid": (True, True)}
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.0, point.b, 401)
            cphi, sphi = prof.cos_sin_phi(y)
            np.testing.assert_allclose(cphi**2 + sphi**2, 1.0, atol=1e-14)
            np.testing.assert_allclose(cphi**2, prof.cos2_phi(y), atol=1e-14)
            for values, is_signed in zip((cphi, sphi),
                                         signed.get(name, (False, False))):
                assert (np.min(values) < -0.1) == is_signed, name

    def test_latitude_derivatives_match_finite_differences(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.013, point.b, 97)
            h = 1e-5 * point.b
            lat, up, down = (prof.latitude(y + s) for s in (0.0, h, -h))
            for k in (0, 1):
                for j in (0, 1):  # cos phi, sin phi
                    fd = (up[k][j] - down[k][j]) / (2 * h)
                    exact = lat[k + 1][j]
                    assert (np.max(np.abs(exact - fd))
                            <= 1e-6 * np.max(np.abs(exact))), name

    def test_dphi_matches_finite_differences(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            y = np.linspace(0.013, point.b, 97)
            h = 1e-6
            fd = (prof.phi(y + h) - prof.phi(y - h)) / (2 * h)
            np.testing.assert_allclose(prof.dphi(y), fd, atol=1e-6)


def map_at(prof, x, y):
    z1, z2 = prof.map_values(x, y)
    return complex(z1), complex(z2)


class TestEvalMap:
    def test_unit_norm_and_origin(self, built):
        point, params, tau, prof = built["nonlimit"]
        z1, z2 = map_at(prof, 0.0, 0.0)
        assert abs(abs(z1) ** 2 + abs(z2) ** 2 - 1.0) <= 1e-12
        assert z1 == pytest.approx(math.sqrt(tau.tau1), rel=1e-12)
        assert z2 == pytest.approx(math.sqrt(1 - tau.tau1), rel=1e-12)

    def test_x_periodicity_and_equivariance(self, built):
        point, params, tau, prof = built["nonlimit"]
        u0 = map_at(prof, 0.37, 0.61)
        u1 = map_at(prof, 1.37, 0.61)
        assert u1[0] == pytest.approx(u0[0], abs=1e-13)
        assert u1[1] == pytest.approx(u0[1], abs=1e-13)
        # the circle action rotates z2 only
        s = 0.123
        us = map_at(prof, 0.37 + s, 0.61)
        assert us[0] == pytest.approx(u0[0], abs=1e-13)
        assert us[1] == pytest.approx(u0[1] * np.exp(2j * math.pi * s), abs=1e-12)

    def test_lattice_periodicity_all_regimes(self, built):
        for name in CASES:
            point, params, tau, prof = built[name]
            for (x, y) in [(0.0, 0.0), (0.41, 0.17), (0.9, 1.05)]:
                u0 = map_at(prof, x, y)
                u1 = map_at(prof, x + point.a, y + point.b)
                assert abs(u1[0] - u0[0]) < 1e-10, name
                assert abs(u1[1] - u0[1]) < 1e-10, name

    @pytest.mark.parametrize("name", list(CASES))
    def test_jet_evaluates_jacobi_once(self, built, monkeypatch, name):
        # jet takes latitude, theta and alpha from one sn, cn, dn, am
        # evaluation, with the values of the separate evaluators to the bit
        prof = built[name][3]
        x, y = 0.37, np.linspace(0.0, 2.0 * prof.point.b, 41)
        (cphi, sphi), (dcphi, dsphi), _ = prof.latitude(y)
        dth, dal = prof.dtheta(y), prof.dalpha(y)
        e1 = np.exp(1j * prof.theta(y))
        e2 = np.exp(1j * (2.0 * math.pi * x + prof.alpha(y)))
        separate = ((cphi * e1, sphi * e2),
                    ((dcphi + 1j * dth * cphi) * e1,
                     (dsphi + 1j * dal * sphi) * e2))
        calls = []
        jacobi = maps.jacobi_sn_cn_dn_am

        def spy(u, m):
            calls.append(u)
            return jacobi(u, m)

        monkeypatch.setattr(maps, "jacobi_sn_cn_dn_am", spy)
        jet = prof.jet(x, y)
        assert len(calls) == 1
        for got, want in zip(np.ravel(jet), np.ravel(separate)):
            assert np.array_equal(got, want)


class TestCircleMap:
    def test_degenerate_latitudes(self):
        pt = ModuliPoint(0.0, 1.0)
        eq = CircleMap(pt, 1, 0, 0.0)
        z1, z2 = eq.map_values(0.3, 0.7)
        assert abs(z2) == pytest.approx(0.0, abs=1e-15)
        pole = CircleMap(pt, 1, 0, math.pi / 2)
        z1, z2 = pole.map_values(0.3, 0.7)
        assert abs(z1) == pytest.approx(0.0, abs=1e-15)

    def test_constant_density_and_harmonicity(self):
        pt = ModuliPoint(-0.6, math.sqrt(0.84))
        cm = CircleMap(pt, 1, 1, 0.7)
        assert cm.energy_density == pytest.approx(
            2 * math.pi**2 / pt.b**2, rel=1e-12)
        assert harmonicity_residual(cm) <= 1e-9

    def test_clifford_family(self):
        cm = CircleMap(ModuliPoint(0.0, 1.0), 1, 0, math.pi / 4)
        y = np.linspace(0, 1, 11)
        z1, z2 = cm.map_values(0.0, y)
        np.testing.assert_allclose(np.abs(z1), np.abs(z2), atol=1e-15)
        assert cm.energy_density == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_boundary_violation_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            CircleMap(ModuliPoint(0.0, 2.0), 1, 0, 0.3)
        with pytest.raises(ValueError):
            CircleMap(ModuliPoint(0.0, 1.0), 1, 0, 2.0)


class TestHarmonicity:
    def test_reference_map_residual(self, built):
        point, params, tau, prof = built["nonlimit"]
        assert harmonicity_residual(prof) <= 1e-10

    def test_all_regimes_small(self, built):
        for name in CASES:
            _, _, _, prof = built[name]
            assert harmonicity_residual(prof, n=500) <= 1e-10, name

    @pytest.mark.parametrize("b", [1.4, 3.0, 3.5])
    def test_one_one_zero_as_m_nears_one(self, b):
        # 1 - m reaches 1.5e-7 at b = 3
        point = ModuliPoint(0.3, b)
        params = classify_params(point, 1, 1, 0)
        prof = build_profiles(solve_tau(point, params), params, point)
        assert harmonicity_residual(prof, n=500) <= 1e-10

    def test_corrupted_tau_fails(self, built):
        point, params, tau, prof = built["nonlimit"]
        bad = replace(tau, tau3=tau.tau3 + 0.01)
        bad_prof = build_profiles(bad, params, point)
        assert harmonicity_residual(bad_prof) > 1e-3

    def test_tau3_error_of_1e9_detected(self, built):
        # a difference stencil with h = 1e-4 read 5.4e-7 on the sound map
        # and 6.4e-7 with tau3 off by 1e-9: it could not tell them apart
        point, params, tau, prof = built["nonlimit"]
        bad = replace(tau, tau3=tau.tau3 + 1e-9)
        bad_prof = build_profiles(bad, params, point)
        assert harmonicity_residual(bad_prof) > max(
            1e-8, 1e3 * harmonicity_residual(prof))

    def test_no_step_keyword(self, built):
        with pytest.raises(TypeError, match="unexpected keyword argument 'h'"):
            harmonicity_residual(built["nonlimit"][3], n=500, h=1e-4)


class TestHopf:
    def test_closed_form_matches_derivative_grid(self, built):
        for name in CASES:
            _, _, tau, prof = built[name]
            hc = hopf_constants(tau)
            re4, im4, spread = hopf_grid_residual(prof)
            assert spread <= 1e-8, name
            assert re4 == pytest.approx(hc.h_re, abs=1e-9)
            assert im4 == pytest.approx(hc.h_im, abs=1e-9)

    def test_symmetric_case_real(self, built):
        # r + a = 0 kills the off-diagonal term
        point = ModuliPoint(0.0, 2.0)
        params = classify_params(point, 1, 1, 0)
        tau = solve_tau(point, params)
        assert hopf_constants(tau).h_im == 0.0

    def test_generic_one_one_zero_positive(self, built):
        _, _, tau, prof = built["one_one_zero"]
        assert hopf_constants(tau).h_im > 0.0


class TestMeshExport:
    def test_records_and_determinism(self, built):
        _, _, _, prof = built["nonlimit"]
        buf1, buf2 = io.StringIO(), io.StringIO()
        n1 = export_mesh(prof, 4, 8, buf1)
        n2 = export_mesh(prof, 4, 8, buf2)
        assert n1 == n2 == 32
        assert buf1.getvalue() == buf2.getvalue()
        recs = [json.loads(line) for line in buf1.getvalue().splitlines()]
        assert len(recs) == 32
        for rec in recs:
            assert set(rec) == {"x", "y", "re_z1", "im_z1", "re_z2", "im_z2"}
            nrm = (rec["re_z1"] ** 2 + rec["im_z1"] ** 2
                   + rec["re_z2"] ** 2 + rec["im_z2"] ** 2)
            assert nrm == pytest.approx(1.0, abs=1e-12)
