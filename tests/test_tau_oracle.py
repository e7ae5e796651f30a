"""High-precision oracle for solved tau triples.

The three conditions Phi(n0 | m) = pi p/q, Phi(n1 | m) = pi |r+a|/q and
Psi(m) = pi^2 b^2/q^2 are solved again in mpmath, in the unknowns m1 = 1 - m,
log(-n0) and (n1 - m)/m1, by mp.findroot from the float solution at
30 + (-log10 m1) digits.  The oracle's own root is checked by mp.quad of the
three defining lattice integrals.  The float triple is judged by what it
carries: tau1, gap2 = 1 - tau2, gap3 = tau3 - 1 and m1 = (gap2 + gap3)/
(tau3 - tau1), each within 1e-12 relative of the oracle on every case.  The
same quantities formed from the rounded m, tau2 and tau3 (1 - m, 1 - tau2,
tau3 - 1) measure their rounding near m = 1, not the solve; their errors are
printed (run with -s).  The Hopf constant H_re = pi^2 (gap2 - gap3 - tau1)
must match to 1e-14 relative wherever |H_re| >= 1e-2, and to 1e-13 at the
two (1,2,0) cases below, where it is about 5e-3 and tau1 + tau2 + tau3 is
near 2.  On the Otsuki torus 99/197, a minimal map, H_re = pi^2 - A/4
vanishes but for the rounding of b (1.1e-15), and its error is only
printed; so are those of the closed-form triple otsuki_tau_triple(m*), whose
float m* leaves tau1 about 9e-11 off.
"""

import math

import mpmath as mp
import pytest

from eqtorus.maps import hopf_constants
from eqtorus.otsuki import otsuki_tau_triple, solve_otsuki
from eqtorus.tau_solver import ModuliPoint, Regime, classify_params, solve_tau
from test_acceptance import SPECTRAL_110_POINTS, SPECTRAL_MIXED_CASES

REL = 1e-12
H_RE_REL = 1e-14
OTSUKI = solve_otsuki(99, 197)
OTSUKI_CASE = (0, OTSUKI.b_t, (OTSUKI.p_t, OTSUKI.q_t, 0))
# (a, b, (p, q, r)) with |H_re| below 1e-2, and their own bound, or None
# where it is not asserted
H_RE_SMALL = {(0.5, 2.4, (1, 2, 0)): 1e-13, (0.5, 2.7, (1, 2, 0)): 1e-13,
              OTSUKI_CASE: None}
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
    # the limit columns of (1,1,0) towards m = 1
    + [(a, b, (1, 1, 0)) for a in (0.0, 0.5) for b in (2.8, 3.0)]
    # tau1 + tau2 + tau3 near 2, where pi^2 - A/4 cancels
    + [(0.5, b, (1, 2, 0)) for b in (2.4, 2.7)]
    # the minimal torus of winding ratio 99/197, at m1 = 1.2e-6
    + [OTSUKI_CASE]
    # the rest of the (1,1,0) grid a in {0, 0.3, 1/2}, b in {1.4, 2, 2.8}
    + [(0.0, 1.4, (1, 1, 0)), (0.5, 1.4, (1, 1, 0)), (0.3, 2.0, (1, 1, 0)),
       (0.3, 2.8, (1, 1, 0))]
    # (1,1,0) towards the end of the Psi table: m1 = 1.9e-11 at (0.3, 4.4)
    + [(a, b, (1, 1, 0)) for a in (0.0, 0.3, 0.5) for b in (4.0, 4.4)]
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

    m1 = mp.mpf(carried_m1(tau))
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


def float_errors(a, b, pqr) -> tuple[float, dict, dict]:
    """triple_errors of solve_tau's triple."""
    point = ModuliPoint(a, b)
    params = classify_params(point, *pqr)
    return triple_errors(point, params, solve_tau(point, params))


def carried_m1(tau) -> float:
    """1 - m = (tau3 - tau2)/(tau3 - tau1) from the carried gaps."""
    return (tau.gap2 + tau.gap3) / (tau.tau3 - tau.tau1)


def triple_errors(point, params, tau) -> tuple[float, dict, dict]:
    """m1 and the relative errors against the oracle started from ``tau``:
    first of what ``tau`` carries (tau1, gap2, gap3, carried_m1 and the
    "H_re" of hopf_constants), then of 1 - m, 1 - tau2 and tau3 - 1 formed
    from the rounded floats.  A quantity that is exactly 0 in both counts
    as no error."""
    pqr = (params.p, params.q, params.r)
    m1 = carried_m1(tau)
    with mp.workdps(30 + max(0, math.ceil(-math.log10(m1)))):
        ref = oracle(point, *pqr, params.regime, tau)
        ref["H_re"] = mp.pi**2 * (ref["1-tau2"] - ref["tau3-1"] - ref["tau1"])
        carried = {"m1": m1, "tau1": tau.tau1, "1-tau2": tau.gap2,
                   "tau3-1": tau.gap3, "H_re": hopf_constants(tau).h_re}
        rounded = {"m1": 1 - mp.mpf(tau.m), "1-tau2": 1 - mp.mpf(tau.tau2),
                   "tau3-1": mp.mpf(tau.tau3) - 1}

        def rel(got):
            return {key: 0.0 if ref[key] == got[key] == 0 else
                    float(abs(mp.mpf(got[key]) - ref[key]) / abs(ref[key]))
                    for key in got}

        return m1, rel(carried), rel(rounded)


def _print_errors(label, m1, errors, rounded):
    print(f"\n{label} m1 = {m1:.3g} "
          + " ".join(f"{key} {err:.2e}" for key, err in errors.items())
          + " | rounded " + " ".join(f"{key} {err:.2e}"
                                     for key, err in rounded.items()))


@pytest.mark.parametrize("a,b,pqr", CASES)
def test_solved_triple_matches_oracle(a, b, pqr):
    m1, errors, rounded = float_errors(a, b, pqr)
    _print_errors(f"(a, b, pqr) = ({a}, {b}, {pqr})", m1, errors, rounded)
    assert max(errors[key] for key in ("m1", "tau1", "1-tau2",
                                       "tau3-1")) <= REL, errors
    h_re_bound = H_RE_SMALL.get((a, b, pqr), H_RE_REL)
    if h_re_bound is not None:
        assert errors["H_re"] <= h_re_bound, errors


def test_otsuki_closed_form_against_oracle():
    # the oracle, started from the closed-form triple at the float m*,
    # converges and passes its own quadrature check; the errors, tau1's
    # about 9e-11 (m* is a float), are printed and not asserted
    a, b, pqr = OTSUKI_CASE
    point = ModuliPoint(a, b)
    params = classify_params(point, *pqr)
    _print_errors(f"otsuki_tau_triple(m*) at {OTSUKI.p_t}/{OTSUKI.q_t}:",
                  *triple_errors(point, params,
                                 otsuki_tau_triple(OTSUKI.m_star)))
