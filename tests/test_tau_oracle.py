"""High-precision oracle for solved tau triples.

The three conditions Phi(n0 | m) = pi p/q, Phi(n1 | m) = pi |r+a|/q and
Psi(m) = pi^2 b^2/q^2 are solved again in mpmath, in the unknowns m1 = 1 - m,
log(-n0) and (n1 - m)/m1, by mp.findroot from the float solution at
30 + (-log10 m1) digits.  The oracle's own root is checked by mp.quad of the
three defining lattice integrals.  Where m1 >= 1e-3 the float triple must
match the oracle to 1e-12 relative in m1, tau1, 1 - tau2 and tau3 - 1; nearer
m = 1 only tau1, which no rounding near 1 limits, is held to that, and the
other errors are printed (run with -s).
"""

import math

import mpmath as mp
import pytest

from eqtorus.tau_solver import ModuliPoint, Regime, classify_params, solve_tau
from test_acceptance import SPECTRAL_110_POINTS, SPECTRAL_MIXED_CASES

REL = 1e-12
QUAD_RESIDUAL = 1e-20

CASES = (
    [(a, b, (1, 1, 0)) for a, b in SPECTRAL_110_POINTS]
    + [(a, b, pqr) for (a, b), pqr, _ in SPECTRAL_MIXED_CASES]
    + [(0.3, b, (1, 1, 0)) for b in (1.4, 2.1, 2.25, 2.7, 3.0)]
    # the hypothesis draw of test_random_feasible_residuals that fails
    + [(0.001953125, 3.749999364217055, (3, 1, 0))]
    # a theta-branch solve here once took a bisection step of 1e-9 t for
    # convergence, leaving tau1 off by 8e-11
    + [(-0.376, 3.8747000677039827, (3, 1, 0))]
)


def _phi(n, m):
    return mp.sqrt((1 - n) * (n - m) / n) * mp.ellippi(n, m)


def oracle(point: ModuliPoint, p: int, q: int, r: int, regime: Regime,
           tau) -> dict:
    """m1, tau1, 1 - tau2 and tau3 - 1 of the exact triple at the current mp
    precision, started from the float triple ``tau``."""
    rpa = abs(point.a_exact + r)
    rpa = mp.mpf(rpa.numerator) / rpa.denominator
    b = mp.mpf(point.b)
    first = regime in (Regime.FIRST_LIMIT, Regime.HYBRID_LIMIT)
    second = regime in (Regime.SECOND_LIMIT, Regime.HYBRID_LIMIT)
    fixed_n1 = second or rpa == 0

    def unpack(x):
        m1, rest = x[0], list(x[1:])
        m = 1 - m1
        n0 = None if first else -mp.exp(rest.pop(0))
        if second:
            n1 = mp.mpf(1)
        elif rpa == 0:
            n1 = m
        else:
            n1 = m + rest.pop(0) * m1
        return m, m1, n0, n1

    def equations(*x):
        m, m1, n0, n1 = unpack(x)
        nu0 = 0 if first else m / n0
        out = [(m / n1 - nu0) * mp.ellipk(m) ** 2 - (mp.pi * b / q) ** 2]
        if not first:
            out.append(_phi(n0, m) - mp.pi * p / q)
        if not fixed_n1:
            out.append(_phi(n1, m) - mp.pi * rpa / q)
        return out

    m1 = 1 - mp.mpf(tau.m)
    x0 = [m1]
    if not first:
        x0.append(mp.log(-mp.mpf(tau.n0)))
    if not fixed_n1:
        x0.append((mp.mpf(tau.n1) - mp.mpf(tau.m)) / m1)
    root = mp.findroot(equations, x0)
    x = list(root) if isinstance(root, mp.matrix) else [root]
    m, m1, n0, n1 = unpack(x)
    nu0 = 0 if first else m / n0
    nu1 = m / n1
    den = nu1 - nu0
    tau1, tau2, tau3 = -nu0 / den, (m - nu0) / den, (1 - nu0) / den
    _check_lattice_integrals(tau1, tau2, tau3, b, p, q, rpa)
    return {"m1": m1, "tau1": tau1, "1-tau2": (nu1 - m) / den,
            "tau3-1": (1 - nu1) / den}


def _check_lattice_integrals(tau1, tau2, tau3, b, p, q, rpa):
    """mp.quad of the three defining integrals, with t = tau1 + (tau2 -
    tau1) sin^2 s removing both endpoint roots, against 2 pi (b, p, |r+a|)/q.
    The second (third) is improper at tau1 = 0 (tau2 = 1) and counts as its
    limit, pi; the third vanishes with its weight at tau3 = 1."""
    dt = tau2 - tau1
    w2 = mp.sqrt(tau1 * tau2 * tau3)
    w3 = mp.sqrt((1 - tau1) * (1 - tau2) * (tau3 - 1))

    def integral(weight):
        def g(s):
            t = tau1 + dt * mp.sin(s) ** 2
            return 2 * weight(t) / mp.sqrt(tau3 - t)
        return mp.quad(g, mp.linspace(0, mp.pi / 2, 5))

    got = [integral(lambda t: 1),
           mp.pi if tau1 == 0 else integral(lambda t: w2 / t),
           mp.pi if tau2 == 1 else integral(lambda t: w3 / (1 - t))]
    for value, want in zip(got, (b, p, rpa)):
        assert abs(value - 2 * mp.pi * want / q) <= QUAD_RESIDUAL


def float_errors(a, b, pqr) -> tuple[float, dict]:
    """m1 and the relative error of each float quantity against the
    oracle; a quantity that is exactly 0 in both counts as no error."""
    point = ModuliPoint(a, b)
    params = classify_params(point, *pqr)
    tau = solve_tau(point, params)
    m1 = 1.0 - tau.m
    with mp.workdps(30 + max(0, math.ceil(-math.log10(m1)))):
        ref = oracle(point, *pqr, params.regime, tau)
        got = {"m1": mp.mpf(m1), "tau1": mp.mpf(tau.tau1),
               "1-tau2": 1 - mp.mpf(tau.tau2), "tau3-1": mp.mpf(tau.tau3) - 1}
        errors = {key: 0.0 if ref[key] == got[key] == 0 else
                  float(abs(got[key] - ref[key]) / abs(ref[key]))
                  for key in ref}
    return m1, errors


@pytest.mark.parametrize("a,b,pqr", CASES)
def test_solved_triple_matches_oracle(a, b, pqr):
    m1, errors = float_errors(a, b, pqr)
    print(f"\n(a, b, pqr) = ({a}, {b}, {pqr}) m1 = {m1:.3g} "
          + " ".join(f"{key} {err:.2e}" for key, err in errors.items()))
    assert errors["tau1"] <= REL, errors
    if m1 >= 1e-3:
        assert max(errors.values()) <= REL, errors
