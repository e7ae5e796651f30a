"""Acceptance suite: one test per stated criterion, each printing a PASS line
with its measured figures (run with -s to see them inline).

Criterion 9 is exploratory: the conjectured (index, nullity) = (3, 7) is
logged, and a discrepancy raises a warning rather than a failure; the hard
assertions there are index <= 4 and nullity >= 6.
"""

import math
import time
import warnings

import numpy as np
import pytest

from eqtorus.functional import (
    flat_lambda1,
    hopf_derivative_check,
    lambda_bar_closed_form,
    lambda_bar_quadrature,
)
from eqtorus.maps import build_profiles, conformality_residual
from eqtorus.otsuki import (
    OMEGA_AT_0,
    OMEGA_AT_1,
    omega_fn,
    otsuki_map,
    solve_otsuki,
)
from eqtorus.spectral import assemble_N2, construct_strict_instance
from eqtorus.stability import (
    hersch_quadrature,
    hersch_second_variation,
    index_nullity_estimate,
    jacobi_block,
    special_phi0_kernel,
)
from eqtorus.tau_solver import (
    ModuliPoint,
    classify_params,
    integral_residuals,
    solve_tau,
)

FIG1_CASES = [
    ((0.25, 2.1), (2, 3, 0), "nonlimit"),
    ((0.25, 1.25), (1, 2, 0), "first_limit"),
    ((0.5, 2.0), (2, 3, 1), "second_limit"),
]

VALUE_SAMPLE = [
    (0.25, 2.1, 2, 3, 0), (0.25, 1.25, 1, 2, 0), (0.5, 2.0, 2, 3, 1),
    (0.0, 1.3, 1, 2, 1), (0.0, 2.0, 1, 1, 0), (0.1, 1.2, 1, 1, 0),
    (0.2, 1.6, 1, 1, 0), (0.3, 1.4, 1, 1, 0), (0.4, 1.1, 1, 1, 0),
    (0.5, 1.5, 1, 1, 0), (0.3, 2.2, 2, 2, 0), (0.1, 3.1, 3, 4, 0),
    (0.4, 2.0, 2, 4, 1), (0.2, 2.6, 2, 3, -1), (0.0, 1.05, 1, 1, 0),
    (0.45, 2.8, 1, 1, 0), (0.25, 4.0, 2, 3, 0), (0.3, 3.4, 3, 5, 0),
    (0.0, 2.5, 2, 4, 2), (0.5, 1.2, 1, 1, 0),
]

SPECTRAL_110_POINTS = [
    (0.0, 1.2), (0.0, 2.0), (0.1, 1.1), (0.15, 1.6), (0.25, 1.3),
    (0.3, 1.4), (0.35, 1.9), (0.4, 1.05), (0.5, 1.2), (0.5, 2.0),
]

SPECTRAL_MIXED_CASES = [
    # ((a, b), (p, q, r), expected N2); the ratio condition of the equality
    # criterion holds for every row, so N2 must meet the bound exactly
    ((0.25, 2.1), (2, 3, 0), 3),
    ((0.5, 2.0), (2, 3, 1), 7),
    ((0.25, 1.25), (1, 2, 0), 2),
    ((0.0, 1.3), (1, 2, 1), 4),
    ((0.0, 2.0), (1, 1, 0), 1),
    ((0.3, 2.2), (2, 2, 0), 3),
    ((0.1, 3.1), (3, 4, 0), 5),
    ((0.4, 2.0), (2, 4, 1), 8),
    ((0.2, 2.6), (2, 3, -1), 5),
    ((0.3, 1.4), (1, 1, 0), 1),
]


def _solve(a, b, p, q, r):
    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    return point, params, solve_tau(point, params)


def _report(num, label, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {num}: PASS  {label}  "
          f"[{elapsed:.2f}s / {budget:.0f}s]  {detail}")


def test_criterion_1_tau_round_trip():
    worst = 0.0
    worst_t = 0.0
    for (a, b), (p, q, r), regime in FIG1_CASES:
        start = time.perf_counter()
        point, params, tau = _solve(a, b, p, q, r)
        res = integral_residuals(tau, point, params)
        elapsed = time.perf_counter() - start
        assert params.regime.value == regime
        assert max(res) <= 1e-9
        if regime == "first_limit":
            assert tau.tau1 == 0.0
        if regime == "second_limit":
            assert tau.tau2 == 1.0
        assert elapsed < 1.0
        worst = max(worst, max(res))
        worst_t = max(worst_t, elapsed)
    _report(1, "tau round trip on the three reference sets", worst_t, 1,
            f"worst residual {worst:.2e}")


def test_criterion_2_closed_form_value():
    start = time.perf_counter()
    worst = 0.0
    for a, b, p, q, r in VALUE_SAMPLE:
        point, params, tau = _solve(a, b, p, q, r)
        closed = lambda_bar_closed_form(tau, params, point)
        quadr = lambda_bar_quadrature(build_profiles(tau, params, point))
        rel = abs(closed - quadr) / abs(closed)
        assert rel <= 1e-8, (a, b, p, q, r, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "closed form equals 2*int(rho) on 20 samples", elapsed, 10,
            f"worst relative gap {worst:.2e}")


def test_criterion_3_value_beats_flat_and_floor():
    start = time.perf_counter()
    a_grid = np.linspace(0.0, 0.5, 15)
    b_grid = np.linspace(0.9, 3.0, 15)
    checked = 0
    min_slack = math.inf
    for a in a_grid:
        for b in b_grid:
            if a * a + b * b <= 1.0:
                continue
            point, params, tau = _solve(a, b, 1, 1, 0)
            lam = lambda_bar_closed_form(tau, params, point)
            slack = lam - max(flat_lambda1(point), 8.0 * math.pi)
            assert slack > 1e-9, (a, b, slack)
            min_slack = min(min_slack, slack)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"(1,1,0) value strictly beats both floors at {checked} "
               "grid points", elapsed, 60, f"min slack {min_slack:.3e}")


def test_criterion_4_spectral_index():
    start = time.perf_counter()
    for a, b in SPECTRAL_110_POINTS:
        point, params, tau = _solve(a, b, 1, 1, 0)
        rep = assemble_N2(tau, params, point)
        assert rep.n2 == 1, (a, b, rep.n2)
        assert max(rep.trace_certificates.values()) <= 1e-7, (a, b)
    for (a, b), (p, q, r), expected in SPECTRAL_MIXED_CASES:
        point, params, tau = _solve(a, b, p, q, r)
        rep = assemble_N2(tau, params, point)
        # the ratio condition forces equality wherever it holds; the hybrid
        # row satisfies the tau-sum condition instead, with the same effect
        assert rep.sufficient_condition_met
        if rep.ratio_condition_met:
            assert rep.equality, ((a, b, p, q, r), rep.n2, rep.bound_rhs)
        assert rep.n2 == rep.bound_rhs
        assert rep.n2 == expected, ((a, b, p, q, r), rep.n2)
        assert max(rep.trace_certificates.values()) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, "N(2) = 1 at 10 (1,1,0) points; N(2) meets the bound on the "
               "10-case mixed sample; trace certificates <= 1e-7",
            elapsed, 120)


def test_criterion_5_strict_instance():
    start = time.perf_counter()
    point, params, cert = construct_strict_instance()
    assert cert["lambda0_2"] is not None
    assert cert["lambda0_2"] < 2.0 - 1e-7
    rep = assemble_N2(cert["tau"], params, point)
    assert rep.n2 > rep.bound_rhs
    assert not rep.equality
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, "strict-inequality instance certified", elapsed, 120,
            f"(p,q,r)=({params.p},{params.q},{params.r}), "
            f"lambda0(2)={cert['lambda0_2']:.6f}, "
            f"N2={rep.n2} > bound={rep.bound_rhs}")


def test_criterion_6_monotonicity():
    start = time.perf_counter()
    points = [(0.1, 1.3), (0.15, 1.6), (0.2, 1.9), (0.25, 1.5), (0.3, 2.2),
              (0.35, 1.4), (0.4, 1.8), (0.12, 1.45), (0.28, 1.25), (0.45, 2.0)]
    worst = 0.0
    for a, b in points:
        rep = hopf_derivative_check(ModuliPoint(a, b))
        assert rep["dE_da"] > 0.0, (a, b)
        assert rep["dE_db"] < 0.0, (a, b)
        rel_a = rep["err_a"] / abs(rep["two_h_im"])
        rel_b = rep["err_b"] / abs(rep["two_h_re"])
        assert rel_a <= 1e-4, (a, b, rel_a)
        assert rel_b <= 1e-4, (a, b, rel_b)
        worst = max(worst, rel_a, rel_b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, "dE/da > 0 > dE/db at 10 interior points, matching the Hopf "
               "constants", elapsed, 30, f"worst relative error {worst:.2e}")


def test_criterion_7_otsuki():
    start = time.perf_counter()
    ot = solve_otsuki(2, 3)
    _, _, _, prof = otsuki_map(ot)
    diag, offdiag = conformality_residual(prof)
    assert diag <= 1e-8 and offdiag <= 1e-8
    ms = np.concatenate([[1e-12], np.linspace(1e-3, 1 - 1e-6, 40),
                         [1 - 1e-10, 1 - 1.2e-16]])
    vals = [omega_fn(m) for m in ms]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert abs(vals[0] - OMEGA_AT_0) <= 1e-6
    assert abs(vals[-1] - OMEGA_AT_1) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, "Otsuki (2,3) conformal to 1e-8; Omega monotone with "
               "endpoint limits to 1e-6", elapsed, 5,
            f"residuals ({diag:.2e}, {offdiag:.2e})")


def test_criterion_8_stability():
    start = time.perf_counter()
    point = ModuliPoint(-0.5, math.sqrt(0.75))  # (1,2,1)-type boundary data
    kp = special_phi0_kernel(point, 1, 1, 2)
    for k in (2, -2):
        blk = jacobi_block(point, 1, 1, kp.phi0, k, 0)
        assert abs(blk.det) <= 1e-10
    assert max(kp.residuals) <= 1e-9
    val = hersch_second_variation(1.0)
    assert val == pytest.approx(math.pi**2 / 2, abs=1e-9)
    assert hersch_quadrature(1.0) == pytest.approx(val, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(8, "singular (+-q, 0) blocks, kernel residuals <= 1e-9, and the "
               "pi^2/2 second variation", elapsed, 10)


def test_criterion_9_index_nullity_exploratory():
    start = time.perf_counter()
    expected = (3, 7)
    for a, b in [(0.3, 1.4), (0.0, 1.6), (0.45, 1.25)]:
        est = index_nullity_estimate(ModuliPoint(a, b))
        assert est.index <= 4, (a, b, est.index)
        assert est.nullity >= 6, (a, b, est.nullity)
        print(f"ACCEPTANCE 9 [log]: (a,b)=({a},{b}) -> index={est.index}, "
              f"nullity={est.nullity}, converged={est.converged} "
              f"(conjectured {expected})")
        if (est.index, est.nullity) != expected:
            warnings.warn(
                f"index/nullity at (a,b)=({a},{b}) gives "
                f"({est.index},{est.nullity}), not the conjectured {expected}",
                stacklevel=1)
    elapsed = time.perf_counter() - start
    _report(9, "index <= 4 and nullity >= 6 at 3 points (exploratory)",
            elapsed, math.inf)
