"""Functional values, flat comparisons, Hopf derivatives, scans."""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from eqtorus import functional
from eqtorus.functional import (
    flat_lambda1,
    functional_value,
    hopf_derivative_check,
    lambda_bar_closed_form,
    lambda_bar_quadrature,
    moduli_scan,
    write_scan_csv,
    xi_fn,
    xi_tilde_fn,
)
from eqtorus.maps import build_profiles
from eqtorus.otsuki import otsuki_map, solve_otsuki
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    classify_params,
    solve_tau,
)


def _solve(a, b, p, q, r):
    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    return point, params, solve_tau(point, params)


# the scan benchmark's seed-0 grid: a-columns of three families, 15 b each
SCAN_FAMILIES = [(1, 1, 0), (1, 2, 0), (2, 3, 1)]
SCAN_A = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
SCAN_B = np.linspace(0.9, 3.0, 15)

MIXED_CASES = [
    (0.25, 2.1, 2, 3, 0), (0.5, 2.0, 2, 3, 1), (0.25, 1.25, 1, 2, 0),
    (0.0, 1.3, 1, 2, 1), (0.0, 2.0, 1, 1, 0), (0.3, 2.2, 2, 2, 0),
    (0.1, 3.1, 3, 4, 0), (0.4, 2.0, 2, 4, 1), (0.2, 2.6, 2, 3, -1),
    (0.3, 1.4, 1, 1, 0),
]


def _feasible(cases):
    """(case, point, params, tau) for each case that is not infeasible."""
    out = []
    for case in cases:
        try:
            out.append((case, *_solve(*case)))
        except InfeasibleParametersError:
            pass
    return out


@pytest.fixture(scope="module")
def scan_grid():
    return _feasible([(a, float(b), *pqr) for pqr in SCAN_FAMILIES
                      for a in SCAN_A for b in SCAN_B])


def _quad_oracle(profiles):
    """The adaptive QUADPACK value the Gauss-Legendre rule replaced."""
    per = profiles.point.b / profiles.params.q
    val, _ = quad(lambda y: float(profiles.rho(y)), 0.0, per,
                  epsabs=1e-11, epsrel=1e-12, limit=200)
    return 2.0 * val * profiles.params.q


class TestFunctionalValue:
    def test_beats_flat_and_floor(self):
        point, params, tau = _solve(0, 2.0, 1, 1, 0)
        fv = functional_value(tau, params, point)
        assert fv.flat_value == pytest.approx(4 * math.pi**2 / 2.0, rel=1e-13)
        assert fv.lambda_bar > max(fv.flat_value, 8 * math.pi)
        assert fv.beats_both

    @pytest.mark.parametrize("case", [
        (0.25, 2.1, 2, 3, 0), (0.25, 1.25, 1, 2, 0), (0.5, 2.0, 2, 3, 1),
        (0.0, 1.3, 1, 2, 1), (0.1, 1.2, 1, 1, 0), (0.4, 3.0, 2, 2, 0),
    ])
    def test_closed_form_matches_quadrature(self, case):
        point, params, tau = _solve(*case)
        fv = functional_value(tau, params, point)
        assert fv.quadrature_value == pytest.approx(fv.lambda_bar, rel=1e-8)

    def test_minimal_specialization(self):
        # tau1 + tau2 = 1, tau3 = 1 collapses the closed form to the
        # pure second-kind term
        from eqtorus.elliptic import complete_E

        ot = solve_otsuki(2, 3)
        point, params, tau, prof = otsuki_map(ot)
        v = lambda_bar_closed_form(tau, params, point)
        expect = (8 * math.pi * params.q
                  * math.sqrt(1 - tau.tau1) * complete_E(tau.m))
        assert v == pytest.approx(expect, rel=1e-13)
        assert lambda_bar_quadrature(prof) == pytest.approx(v, rel=1e-9)

    def test_boundary_continuation_to_flat_value(self):
        # approaching the circle-family boundary the value drops to 4pi^2/b
        a = 0.2
        b_star = math.sqrt(1 - a * a)
        point, params, tau = _solve(a, math.sqrt(b_star**2 + 1e-6), 1, 1, 0)
        fv = functional_value(tau, params, point)
        assert fv.lambda_bar == pytest.approx(4 * math.pi**2 / point.b, rel=1e-2)

    def test_with_n2(self):
        point, params, tau = _solve(0.3, 1.4, 1, 1, 0)
        fv = functional_value(tau, params, point, with_n2=True)
        assert fv.n2 == 1


class TestGaussLegendre:
    def test_matches_adaptive_oracle(self, scan_grid):
        cases = scan_grid + _feasible(
            [(a, b, 1, 1, 0) for a in (0.0, 0.3, 0.5) for b in (3.0, 4.0, 4.4)]
            + MIXED_CASES)
        profiles = [build_profiles(tau, params, point)
                    for _, point, params, tau in cases]
        profiles += [otsuki_map(solve_otsuki(pt, qt))[3]
                     for pt, qt in ((2, 3), (3, 5), (99, 197))]
        assert len(profiles) == 231 + 9 + 10 + 3
        for prof in profiles:
            assert lambda_bar_quadrature(prof) == pytest.approx(
                _quad_oracle(prof), rel=1e-13, abs=0)

    def test_unsettled_integrand_raises(self):
        rng = np.random.default_rng(0)
        noise = SimpleNamespace(
            point=SimpleNamespace(b=2.0), params=SimpleNamespace(q=1),
            rho=lambda y: rng.standard_normal(np.shape(y)))
        with pytest.raises(RuntimeError, match="4096 panels"):
            lambda_bar_quadrature(noise)


class TestFlatLambda1:
    def test_square_torus(self):
        assert flat_lambda1(ModuliPoint(0, 1.0)) == pytest.approx(
            4 * math.pi**2, rel=1e-14)

    def test_equilateral(self):
        pt = ModuliPoint(0.5, math.sqrt(3) / 2)
        assert flat_lambda1(pt) == pytest.approx(8 * math.pi**2 / math.sqrt(3),
                                                 rel=1e-13)

    def test_tall_rectangle(self):
        assert flat_lambda1(ModuliPoint(0, 2.0)) == pytest.approx(
            2 * math.pi**2, rel=1e-14)

    @staticmethod
    def _brute_force(point, reach=60):
        a, b = point.a, point.b
        return 4 * math.pi**2 * b * min(
            k * k + (j - k * a) ** 2 / (b * b)
            for k in range(-reach, reach + 1) for j in range(-reach, reach + 1)
            if k or j)

    def test_unreduced_lattice(self):
        # a = 3/10, b = 0.05: the shortest dual vector is (k, j) = (3, 1),
        # outside a fixed window that covers reduced lattices only
        pt = ModuliPoint("3/10", 0.05)
        assert flat_lambda1(pt) == pytest.approx(25.660971442832345, rel=1e-12)
        assert flat_lambda1(pt) == pytest.approx(self._brute_force(pt),
                                                 rel=1e-12)

    def test_matches_brute_force(self):
        # random shears well past |a| = 1/2 and heights below 1: every
        # shortest dual vector lies inside |k|, |j| <= 60 for b >= 0.05
        rng = np.random.default_rng(5)
        shears = rng.uniform(-3.0, 3.0, 60)
        heights = rng.uniform(0.05, 3.0, 60)
        for a, b in zip(shears, heights):
            pt = ModuliPoint(float(a), float(b))
            assert flat_lambda1(pt) == pytest.approx(self._brute_force(pt),
                                                     rel=1e-12)


class TestXi:
    @pytest.mark.parametrize("m", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_above_floors(self, m):
        assert xi_fn(m) > math.pi**2
        assert xi_tilde_fn(m) > 2.0

    def test_limit_at_zero(self):
        assert xi_fn(1e-6) == pytest.approx(math.pi**2, abs=1e-3)

    def test_limit_at_one_by_extrapolation(self):
        # the approach to the limit is logarithmic (corrections in 1/K(m)),
        # so extrapolate a polynomial in x = 1/K(m) to x = 0
        from eqtorus.elliptic import complete_K

        ms = [1.0 - 10.0**(-k) for k in (6, 8, 10, 12)]
        xs = np.array([1.0 / complete_K(m) for m in ms])
        ys = np.array([xi_tilde_fn(m) for m in ms])
        fit = np.polynomial.polynomial.Polynomial.fit(xs, ys, deg=3)
        assert float(fit(0.0)) == pytest.approx(2.0, abs=1e-3)

    def test_monotone_directions(self):
        assert xi_fn(0.3) < xi_fn(0.6)
        assert xi_tilde_fn(0.3) > xi_tilde_fn(0.6)


class TestHopfDerivative:
    def test_symmetric_point_flat_in_a(self):
        rep = hopf_derivative_check(ModuliPoint(0.1, 1.8))
        # ... compare against the holomorphic prediction
        assert rep["err_a"] <= max(1e-4, abs(rep["two_h_im"]) * 1e-4)
        assert rep["err_b"] <= max(1e-4, abs(rep["two_h_re"]) * 1e-4)

    def test_signs(self):
        rep = hopf_derivative_check(ModuliPoint(0.25, 1.5))
        assert rep["dE_da"] > 0.0
        assert rep["dE_db"] < 0.0
        assert rep["two_h_im"] > 0.0
        assert rep["two_h_re"] < 0.0

    def test_rectangular_class_flat_in_a(self):
        # at a = 0 the off-diagonal Hopf component vanishes by symmetry
        rep = hopf_derivative_check(ModuliPoint(0.0, 1.8))
        assert rep["two_h_im"] == 0.0
        assert abs(rep["dE_da"]) <= 1e-6

    def test_boundary_guard(self):
        with pytest.raises(ValueError):
            hopf_derivative_check(ModuliPoint(0.2, math.sqrt(1 - 0.04) + 1e-6),
                                  h=1e-3)
        # the region test is on |a| + h, and so is the printed value
        for a in (0.45, -0.45):
            with pytest.raises(ValueError, match=r"\|a\| \+ h = 0\.55 "):
                hopf_derivative_check(ModuliPoint(a, 1.5), h=0.1)

    def test_scaling_covariance(self):
        # lambda_bar = lambda_1 * area is scale free: scaling the metric by
        # c scales the eigenvalue by 1/c and the quadrature 2*int(c rho) by
        # c, so the assembled value is an exact fixed point of the formula
        point, params, tau = _solve(0.3, 1.4, 1, 1, 0)
        prof = build_profiles(tau, params, point)
        base = lambda_bar_quadrature(prof)
        for c in (0.1, 7.0):
            assert (1.0 / c) * c * base == base


@pytest.fixture(scope="module")
def rows():
    return moduli_scan(np.linspace(0.0, 0.5, 3), np.linspace(0.8, 2.0, 4),
                       1, 1, 0)


class TestScan:
    def test_row_count_and_infeasibles(self, rows):
        assert len(rows) == 12
        bad = [row for row in rows if row["status"] != "ok"]
        # the whole b = 0.8 column violates (r+a)^2 + b^2 > 1
        assert len(bad) == 3
        for row in bad:
            assert "infeasible" in row["status"]

    def test_value_beats_both_on_feasible_rows(self, rows):
        for row in rows:
            if row["status"] != "ok":
                continue
            assert row["lambda_bar"] > max(row["flat_value"], 8 * math.pi)
            assert row["N2"] == 1

    def test_monotone_in_b(self, rows):
        for a in (0.0, 0.25, 0.5):
            vals = [row["lambda_bar"] for row in rows
                    if row["a"] == a and row["status"] == "ok"]
            assert all(x > y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_printed_values_are_functional_value(self, scan_grid):
        want = {case: functional_value(tau, params, point)
                for case, point, params, tau in scan_grid}
        for p, q, r in SCAN_FAMILIES:
            for row in moduli_scan(SCAN_A, SCAN_B, p, q, r):
                if row["status"] != "ok":
                    continue
                fv = want.pop((row["a"], row["b"], p, q, r))
                assert row["lambda_bar"] == fv.lambda_bar
                assert row["flat_value"] == fv.flat_value
                assert row["petrides_floor"] == fv.petrides_floor
        assert not want

    def test_no_quadrature(self, monkeypatch):
        def refuse(profiles):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(functional, "lambda_bar_quadrature", refuse)
        point, params, tau = _solve(0.3, 1.4, 1, 1, 0)
        with pytest.raises(AssertionError, match="quadrature called"):
            functional_value(tau, params, point)
        rows = moduli_scan(np.linspace(0.0, 0.5, 3), [1.3, 1.8], 1, 1, 0)
        assert [row["status"] for row in rows] == ["ok"] * 6

    def test_monotone_in_a(self):
        rows = moduli_scan(np.linspace(0.05, 0.45, 5), [1.7], 1, 1, 0)
        vals = [row["lambda_bar"] for row in rows]
        assert all(x < y - 1e-9 for x, y in zip(vals, vals[1:]))

    def test_csv_shape_and_precision(self, rows):
        buf = io.StringIO()
        write_scan_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("a,b,tau1")
        # full double precision round-trips
        first_ok = next(line for line in lines[1:] if line.endswith("ok"))
        lam = float(first_ok.split(",")[6])
        match = [row for row in rows if row["status"] == "ok"][0]
        assert lam == match["lambda_bar"]

    def test_parallel_jobs_preserve_order(self, rows):
        # one a-column per worker: every row, all columns, as with one job
        par = moduli_scan(np.linspace(0.0, 0.5, 3), np.linspace(0.8, 2.0, 4),
                          1, 1, 0, jobs=2)
        assert par == rows
