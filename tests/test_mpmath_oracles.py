"""50-digit mpmath references for the elliptic integrals and the branch
functions built on them, through the extreme characteristics and moduli the
tau solve and the Otsuki tori reach: n from -1e15 to -1e-9, n -> 1, and m
from 1e-15 to 1 - 1.2e-16 (the last double below 1); the incomplete
third-kind integral over amplitudes on and off the principal branch; and
the cosine series of the spectral layer's rho against a 30-digit transform
of rho's samples."""

import math

import mpmath as mp
import pytest

from eqtorus.elliptic import complete_E, complete_K, complete_Pi, incomplete_Pi
from eqtorus.functional import lambda_bar_closed_form
from eqtorus.maps import build_profiles
from eqtorus.otsuki import omega_fn
from eqtorus.tau_solver import ModuliPoint, classify_params, phi_fn, solve_tau

mp.mp.dps = 50
REL = 1e-13

MODULI = [1e-15, 1e-9, 1e-3, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
          1 - 1.2e-16]
NEGATIVE_N = [-1e15, -1e12, -1e9, -1e6, -1e3, -1.0, -1e-3, -1e-6, -1e-9]
AMPLITUDES = [1e-8, 0.7, 1.5, -4.0]
# alpha-branch characteristics as fractions of the way from m to 1
ALPHA_T = [1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12]


def rel_err(value, reference):
    return float(abs(mp.mpf(value) - reference) / abs(reference))


def mp_pi(n, m):
    return mp.ellippi(mp.mpf(n), mp.mpf(m))


def mp_phi(n, m):
    n, m = mp.mpf(n), mp.mpf(m)
    return mp.sqrt((1 - n) * (n - m) / n) * mp.ellippi(n, m)


@pytest.mark.parametrize("m", MODULI)
def test_complete_K_E(m):
    assert rel_err(complete_K(m), mp.ellipk(mp.mpf(m))) <= REL
    assert rel_err(complete_E(m), mp.ellipe(mp.mpf(m))) <= REL


@pytest.mark.parametrize("m", MODULI)
def test_theta_branch(m):
    # complete_Pi and phi_fn on n < 0, where K + (n/3) R_J would cancel
    for n in NEGATIVE_N:
        assert rel_err(complete_Pi(n, m), mp_pi(n, m)) <= REL, n
        assert rel_err(phi_fn(n, m), mp_phi(n, m)) <= REL, n


@pytest.mark.parametrize("m", MODULI[:-1])
def test_alpha_branch(m):
    ns = [m + t * (1.0 - m) for t in ALPHA_T] + [1.0 - 1e-12, 1.0 - 2**-52]
    for n in ns:
        if not m < n < 1.0:
            continue
        assert rel_err(complete_Pi(n, m), mp_pi(n, m)) <= REL, n
        assert rel_err(phi_fn(n, m), mp_phi(n, m)) <= REL, n


@pytest.mark.parametrize("m", MODULI)
def test_incomplete_pi_negative_n(m):
    # the addition theorem takes over below n = -sqrt(m): both sides of it
    seam = -math.sqrt(m)
    for n in NEGATIVE_N + [seam * (1.0 + 1e-9), seam * (1.0 - 1e-9)]:
        for psi in AMPLITUDES:
            reference = mp.ellippi(mp.mpf(n), mp.mpf(psi), mp.mpf(m))
            assert rel_err(incomplete_Pi(n, psi, m), reference) <= REL, \
                (n, psi)


def test_pi_between_zero_and_m():
    for m in (0.3, 0.9, 1 - 1e-9):
        for n in (1e-12, 0.5 * m, m):
            assert rel_err(complete_Pi(n, m), mp_pi(n, m)) <= REL, (n, m)


def test_theta_limit_exact():
    # nu = m/n = 0 leaves pi/2 with nothing added
    for m in (1e-15, 0.5, 1 - 1.2e-16):
        assert phi_fn(-math.inf, m) == math.pi / 2
        assert phi_fn(-1e300, m) == pytest.approx(math.pi / 2, rel=1e-15)


@pytest.mark.parametrize("m", MODULI + [0.05, 0.2, 0.7, 0.95, 0.99])
def test_omega(m):
    M = mp.mpf(m)
    n0 = -M / (1 - M)
    reference = mp.sqrt((2 - M) / (1 - M)) * mp.ellippi(n0, M)
    assert rel_err(omega_fn(m), reference) <= REL


# (a, b) and (p, q, r) of the cosine series checks: m1 = 1.45e-7 at the
# first, where the float m = 1 - m1 would keep 9 digits of m1
SERIES_CASES = [((0.3, 3.0), (1, 1, 0)), ((0.25, 2.1), (2, 3, 0))]


def mp_rho_coefficients(tau, count, nodes=128):
    """c_0 ... c_{count-1} of rho = c_0 + 2 sum c_k cos(2 pi k y/P) by a
    30-digit discrete cosine transform of rho = 2 pi^2 (tau2 + tau3 - tau1
    - 2 m (tau3 - tau1) sn^2(u | m)) on `nodes` points of its period 2K in
    u, with m = 1 - (gap2 + gap3)/(tau3 - tau1) from the same triple.  The
    c_k fall like q^k, q <= 0.6 here, so the terms that alias onto the
    first count are below 1e-25."""
    with mp.workdps(30):
        t1, t2, t3 = (mp.mpf(t) for t in tau.taus)
        m = 1 - (mp.mpf(tau.gap2) + mp.mpf(tau.gap3)) / (t3 - t1)
        K = mp.ellipk(m)
        rho = [2 * mp.pi**2 * (t2 + t3 - t1 - 2 * m * (t3 - t1)
                               * mp.ellipfun("sn", 2 * K * j / nodes, m=m) ** 2)
               for j in range(nodes)]
        return [mp.fsum(r * mp.cospi(mp.mpf(2 * k * j) / nodes)
                        for j, r in enumerate(rho)) / nodes
                for k in range(count)]


@pytest.mark.parametrize("case", SERIES_CASES)
def test_rho_series(case):
    # ProfileSet.rho_series, c_0 ... c_20, against the transform of rho's
    # samples, to 1e-13 of c_0; and 2 b c_0 = 2 int_0^b rho dy against the
    # closed-form lambda_bar, whose E(m) takes the float m
    (a, b), pqr = case
    point = ModuliPoint(a, b)
    params = classify_params(point, *pqr)
    tau = solve_tau(point, params)
    coef = build_profiles(tau, params, point).rho_series
    want = mp_rho_coefficients(tau, 21)
    # the series stops below 2^-53 c_0: the terms past it count as 0
    got = list(coef[:21]) + [0.0] * (21 - coef.size)
    err = max(abs(mp.mpf(c) - w) for c, w in zip(got, want))
    assert float(err) <= 1e-13 * coef[0]
    assert 2.0 * b * coef[0] == pytest.approx(
        lambda_bar_closed_form(tau, params, point), rel=1e-13)
