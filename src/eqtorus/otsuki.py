"""Minimal members of the family: the Otsuki tori.

A map in the family is minimal iff it is conformal, which pins the data to
tau1 + tau2 = 1, tau3 = 1 (equivalently n0 = -m/(1-m), n1 = m, so r + a = 0).
The winding condition is the theta-branch condition Phi(n0 | m) = pi p/q of
the tau solve at that characteristic, so the modulus is the unique root of

    Omega(m) = Phi(-m/(1-m) | m) = sqrt((2-m)/(1-m)) Pi(-m/(1-m) | m)
             = pi p~/q~,

with Omega strictly decreasing from sqrt(2) pi/2 at m = 0 to pi/2 at m = 1;
hence only ratios p~/q~ in (1/2, sqrt(2)/2) occur.  The period follows from
b~ = (q~/pi) sqrt(2-m) K(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from eqtorus.elliptic import complete_K
from eqtorus.maps import build_profiles
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    Regime,
    TauTriple,
    classify_params,
    phi_fn,
)

__all__ = [
    "OtsukiParams",
    "omega_fn",
    "solve_otsuki",
    "otsuki_tau_triple",
    "otsuki_map",
]

OMEGA_AT_0 = math.sqrt(2.0) * math.pi / 2.0
OMEGA_AT_1 = math.pi / 2.0


def omega_fn(m: float) -> float:
    """Omega(m) = Phi(-m/(1-m) | m), strictly decreasing on (0, 1).

    sqrt((2-m)/(1-m)) is Phi's weight sqrt((1-n)(n-m)/n) at the conformal
    characteristic n0 = -m/(1-m), so Omega is the theta-branch Phi there and
    inherits its cancellation-free evaluation as m -> 1 (n0 -> -inf).  The
    endpoints take their limits, sqrt(2) pi/2 at m = 0 and pi/2 at m = 1.
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m={m!r} outside [0, 1]")
    if m == 0.0:
        return OMEGA_AT_0
    if m == 1.0:
        return OMEGA_AT_1
    return phi_fn(-m / (1.0 - m), m)


@dataclass(frozen=True)
class OtsukiParams:
    """Solved data of one minimal torus: winding ratio, modulus, period."""

    p_t: int
    q_t: int
    m_star: float
    b_t: float


def solve_otsuki(p_t: int, q_t: int) -> OtsukiParams:
    """Solve Omega(m) = pi p~/q~ for coprime p~, q~ with p~/q~ in (1/2, sqrt2/2).

    The ratio-1/2 boundary is rejected: there the family degenerates (the
    maps stop being linearly full) and no minimal torus of this kind exists.
    scipy.optimize is imported here, so that only this solve loads it.
    """
    from scipy.optimize import brentq

    p_t, q_t = int(p_t), int(q_t)
    if p_t <= 0 or q_t <= 0 or math.gcd(p_t, q_t) != 1:
        raise InfeasibleParametersError(
            f"winding pair ({p_t}, {q_t}) must be positive and coprime")
    ratio = Fraction(p_t, q_t)
    if ratio <= Fraction(1, 2) or 2 * p_t * p_t >= q_t * q_t:
        raise InfeasibleParametersError(
            f"ratio {p_t}/{q_t} outside (1/2, sqrt(2)/2): no minimal torus")
    target = math.pi * p_t / q_t
    m_star = brentq(lambda m: omega_fn(m) - target, 0.0, 1.0,
                    xtol=1e-15, rtol=8.9e-16, maxiter=300)
    b_t = (q_t / math.pi) * math.sqrt(2.0 - m_star) * complete_K(m_star)
    return OtsukiParams(p_t=p_t, q_t=q_t, m_star=m_star, b_t=b_t)


def otsuki_tau_triple(m: float) -> TauTriple:
    """The conformal specialization tau1 = (1-m)/(2-m), tau2 = 1/(2-m), tau3 = 1."""
    t1 = (1.0 - m) / (2.0 - m)
    t2 = 1.0 / (2.0 - m)
    return TauTriple(tau1=t1, tau2=t2, tau3=1.0, m=m,
                     n0=-m / (1.0 - m), n1=m,
                     A=4.0 * math.pi**2,
                     c=2.0 * math.pi * math.sqrt(t1 * t2),
                     d=0.0, gap2=t1, gap3=0.0)


def otsuki_map(params_ot: OtsukiParams, k: int = 1, r_t: int = 0):
    """(point, map params, tau, profiles) of the k-fold cover of the torus."""
    if k < 1:
        raise ValueError("cover degree k must be >= 1")
    point = ModuliPoint(-r_t, k * params_ot.b_t)
    params = classify_params(point, k * params_ot.p_t, k * params_ot.q_t, r_t)
    if params.regime is not Regime.NONLIMIT:
        raise ValueError(f"(p, q, r) = ({params.p}, {params.q}, {params.r}) "
                         f"is in the {params.regime.value} regime; the "
                         "minimal specialization needs the nonlimit one")
    tau = otsuki_tau_triple(params_ot.m_star)
    return point, params, tau, build_profiles(tau, params, point)
