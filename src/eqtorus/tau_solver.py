"""Solve for the cubic-root parameters (tau1, tau2, tau3) of an equivariant
harmonic torus from a conformal class (a, b) and an integer triple (p, q, r).

The defining conditions are three complete elliptic-integral identities on
[tau1, tau2] whose right-hand sides are 2*pi*b/q, 2*pi*p/q and 2*pi*|r+a|/q.
In terms of

    m  = (tau2 - tau1) / (tau3 - tau1),
    n0 = -(tau2 - tau1) / tau1          (in [-inf, 0)),
    n1 =  (tau2 - tau1) / (1 - tau1)    (in [m, 1]),

they reduce to Phi(n0 | m) = pi*p/q, Phi(n1 | m) = pi*|r+a|/q and
Psi(m) = pi^2 b^2 / q^2, with Phi and Psi defined below.  Phi is monotone on
each characteristic branch and Psi is monotone in m, so the whole solve is a
nested sequence of bracketed one-dimensional root finds.  Both inner
brackets have ends whose Phi is known in closed form or bounded from below
(solve_n, _theta_nu), so no target is clamped to a resolvable range.

Limit cases are detected exactly from the integer data (and from `a` when it
is given as an exact rational): p/q = 1/2 forces tau1 = 0 (n0 = -inf) and
|r+a|/q = 1/2 forces tau2 = 1 (n1 = 1).  The theta branch is parametrized
internally by nu0 = m/n0 <= 0, which stays bounded through the first limit
case; similarly nu1 = m/n1 in [m, 1].  Phi itself is evaluated in nu0 on
that branch, by the addition theorem for the third-kind integral, so the
first limit case is the ordinary point nu0 = 0 of the same formula.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import elliprj

from eqtorus.config import Tolerances
from eqtorus.elliptic import complete_K, complete_Pi

__all__ = [
    "Regime",
    "ModuliPoint",
    "MapParams",
    "TauTriple",
    "InfeasibleParametersError",
    "classify_params",
    "circle_gap",
    "require_circle_boundary",
    "phi_fn",
    "solve_n",
    "psi_fn",
    "solve_tau",
    "third_limit_asymptote",
    "lattice_integrals",
    "integral_residuals",
]

# |(r+a)^2 + b^2 - p^2| at or below this is treated as the circle-family
# boundary rather than a (numerically hopeless) interior point
CIRCLE_TOL = 1e-9


class InfeasibleParametersError(ValueError):
    """Raised when (a, b, p, q, r) violate the defining inequalities."""


class Regime(enum.Enum):
    NONLIMIT = "nonlimit"
    FIRST_LIMIT = "first_limit"
    SECOND_LIMIT = "second_limit"
    HYBRID_LIMIT = "hybrid_limit"
    CIRCLE_FAMILY = "circle_family"


def _as_fraction(a) -> Fraction:
    # every float is an exact dyadic rational, so Fraction(a) is faithful
    # to the bits the caller supplied; strings like "1/3" stay exact
    if isinstance(a, Fraction):
        return a
    if isinstance(a, str):
        return Fraction(a)
    if isinstance(a, (int, np.integer)):
        return Fraction(int(a))
    return Fraction(float(a))


@dataclass(frozen=True)
class ModuliPoint:
    """A conformal class on the torus, i.e. the lattice spanned by (1,0), (a,b).

    ``a`` is kept twice: as a float for numerics and as an exact Fraction for
    the limit-case classification, which is discontinuous in a.
    """

    a: float
    b: float
    a_exact: Fraction = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"lattice height b={self.b!r} must be positive")
        frac = _as_fraction(self.a if self.a_exact is None else self.a_exact)
        object.__setattr__(self, "a_exact", frac)
        object.__setattr__(self, "a", float(frac))
        object.__setattr__(self, "b", float(self.b))

    @property
    def a_class(self) -> str:
        if self.a_exact == 0:
            return "zero"
        if self.a_exact == Fraction(1, 2):
            return "half"
        return "generic"


@dataclass(frozen=True)
class MapParams:
    """Integer winding data (p, q, r) together with its regime."""

    p: int
    q: int
    r: int
    regime: Regime

    def r_plus_a(self, point: ModuliPoint) -> float:
        return self.r + point.a


def classify_params(point: ModuliPoint, p: int, q: int, r: int) -> MapParams:
    """Validate (p, q, r) against the feasibility inequalities and classify.

    Raises InfeasibleParametersError naming the violated inequality.  The
    first two inequalities (and their equality cases) are decided exactly;
    the third one in floating point with the circle-family tolerance.
    """
    p, q, r = int(p), int(q), int(r)
    if p <= 0 or q <= 0:
        raise InfeasibleParametersError(f"p={p}, q={q} must be positive integers")
    rpa = r + point.a_exact
    if 2 * p < q:
        raise InfeasibleParametersError(f"p/q = {p}/{q} violates p/q >= 1/2")
    if 2 * abs(rpa) > q:
        raise InfeasibleParametersError(
            f"|r+a|/q = {float(abs(rpa))}/{q} violates |r+a|/q <= 1/2"
        )
    gap, on_circle = circle_gap(point, p, r)
    if on_circle:
        return MapParams(p, q, r, Regime.CIRCLE_FAMILY)
    if gap < 0.0:
        raise InfeasibleParametersError(
            f"(r+a)^2 + b^2 = {float(rpa)**2 + point.b**2} violates "
            f"(r+a)^2 + b^2 > p^2 = {p * p}"
        )
    first = 2 * p == q
    second = 2 * abs(rpa) == q
    if first and second:
        regime = Regime.HYBRID_LIMIT
    elif first:
        regime = Regime.FIRST_LIMIT
    elif second:
        regime = Regime.SECOND_LIMIT
    else:
        regime = Regime.NONLIMIT
    return MapParams(p, q, r, regime)


def circle_gap(point: ModuliPoint, p: int, r: int) -> tuple[float, bool]:
    """(r+a)^2 + b^2 - p^2 and whether it is within CIRCLE_TOL of zero, i.e.
    on the circle-family boundary; every module decides the boundary here."""
    gap = float(r + point.a_exact) ** 2 + point.b**2 - p * p
    return gap, abs(gap) <= CIRCLE_TOL


def require_circle_boundary(point: ModuliPoint, p: int, r: int,
                            reason: str) -> None:
    """Raise InfeasibleParametersError, its message the gap followed by
    ``reason``, unless (a, b, p, r) is on the circle-family boundary."""
    gap, on_circle = circle_gap(point, p, r)
    if not on_circle:
        raise InfeasibleParametersError(f"(r+a)^2 + b^2 - p^2 = {gap}{reason}")


# --------------------------------------------------------------------------
# the monotone functions Phi, Psi and their bracketed inversions
# --------------------------------------------------------------------------


def _phi_theta(nu: float, m: float) -> float:
    """Phi on the theta branch in nu = m/n <= 0.  The addition theorem
    Pi(n|m) + Pi(m/n|m) = K(m) + (pi/2) sqrt(n/((1-n)(n-m))) (DLMF 19.7.9 at
    phi = pi/2) gives

        Phi = pi/2 + sqrt(nu (nu-m) (1-nu)) R_J(0, 1-m, 1, 1-nu) / 3:

    nothing cancels as n -> -inf, and nu = 0 (n = -inf) gives pi/2 exactly."""
    return math.pi / 2 + (math.sqrt(nu * (nu - m) * (1.0 - nu))
                          * float(elliprj(0.0, 1.0 - m, 1.0, 1.0 - nu)) / 3.0)


def phi_fn(n: float, m: float) -> float:
    """Phi(n | m) = sqrt((1-n)(n-m)/n) * Pi(n | m).

    Defined on the two characteristic branches n < 0 and m < n < 1, strictly
    increasing in n on each, with limits pi/2 at n -> -inf and n -> 1,
    Phi(m|m) = 0 and Phi(0-) = +inf.  On n < 0 it is evaluated in nu = m/n
    (_phi_theta), where n = -inf needs no special case.
    """
    m = float(m)
    n = float(n)
    if not 0.0 < m < 1.0:
        raise ValueError(f"m={m!r} must lie in (0, 1)")
    if n < 0.0:
        return _phi_theta(m / n, m)
    if n == 1.0:
        return math.pi / 2
    if n == m:
        return 0.0
    if n <= m:
        raise ValueError(f"characteristic n={n!r} in the excluded band [0, m]")
    w = math.sqrt((1.0 - n) * (n - m) / n)
    return w * complete_Pi(n, m)


def _theta_nu(target: float, m: float) -> float:
    """nu0 = m/n0 <= 0 with Phi(n0 | m) = target.  Phi falls in nu from +inf
    to pi/2 at nu = 0, and with x = 2 (target - pi/2)/pi it reaches target
    by nu = -x (2 + x), so [-2x (2 + x), 0] brackets the root; at target
    pi/2 (x = 0) brentq returns the endpoint 0."""
    if target < math.pi / 2:
        raise InfeasibleParametersError(
            f"theta-branch target {target} below pi/2")
    # with y = 1 - m <= 1 and p = 1 - nu >= 1, the integral form (DLMF
    # 19.16.2) R_J(0, y, 1, p) = (3/2) int_0^inf dt / ((t+p) sqrt(t (t+y)
    # (t+1))) is at least (3/2) int_0^inf dt / ((t+p) (t+1) sqrt t)
    # = (3 pi/2) / (sqrt p (sqrt p + 1)); with nu (nu-m) >= nu^2 that gives
    # Phi(nu) - pi/2 >= (pi/2) (sqrt(1 - nu) - 1).  The bound is tight as
    # m -> 0, so the factor 2 keeps rounding from closing the bracket.
    x = 2.0 * (target - math.pi / 2) / math.pi
    return brentq(lambda nu: _phi_theta(nu, m) - target, -2.0 * x * (2.0 + x),
                  0.0, xtol=1e-16, rtol=8.9e-16, maxiter=300)


def solve_n(target: float, branch: str, m: float) -> float:
    """Invert Phi(. | m) = target on the requested characteristic branch.

    branch='theta' solves on n < 0 (target >= pi/2, value -inf iff target is
    exactly pi/2); branch='alpha' solves on [m, 1] (target in [0, pi/2],
    value m at 0 and 1 at pi/2).  No target is clamped: the alpha bracket's
    ends have Phi = 0 and pi/2, the theta bracket's far end a Phi bounded
    below by the target (_theta_nu).
    """
    m = float(m)
    target = float(target)
    half_pi = math.pi / 2
    if branch == "theta":
        nu = _theta_nu(target, m)
        return m / nu if nu < 0.0 else -math.inf
    if branch == "alpha":
        if not 0.0 <= target <= half_pi:
            raise InfeasibleParametersError(
                f"alpha-branch target {target} outside [0, pi/2]"
            )
        # solve in s with n = m + s(1-m): brentq's rtol floor of 4 eps cannot
        # resolve n - m near n = 1, in s it can.  The ends s = 0 and s = 1
        # give n = m and n = 1 exactly (the rounding error of 1 - m is at
        # most 2^-54, so m + (1 - m) rounds to 1), where Phi is 0 and pi/2
        mu = 1.0 - m
        s = brentq(lambda s: phi_fn(m + s * mu, m) - target, 0.0, 1.0,
                   xtol=4e-16, rtol=8.9e-16, maxiter=300)
        return m + s * mu
    raise ValueError(f"unknown branch {branch!r}")


def _nu_pair(m: float, target_theta: float, target_alpha: float) -> tuple[float, float]:
    """(nu0, nu1) = (m/n0, m/n1) for the two branch targets; nu0 = 0 and
    nu1 = m stand for n0 = -inf and n1 = 1."""
    return _theta_nu(target_theta, m), m / solve_n(target_alpha, "alpha", m)


def _branch_targets(point: ModuliPoint,
                    params: MapParams) -> tuple[float, float]:
    """The branch targets pi p/q and pi |r+a|/q, exactly pi/2 in the limit
    cases that params.regime names (pi p/q may round below pi/2)."""
    reg = params.regime
    rpa = abs(float(params.r + point.a_exact))
    if reg in (Regime.FIRST_LIMIT, Regime.HYBRID_LIMIT):
        target_theta = math.pi / 2
    else:
        target_theta = math.pi * params.p / params.q
    if reg in (Regime.SECOND_LIMIT, Regime.HYBRID_LIMIT):
        return target_theta, math.pi / 2
    return target_theta, math.pi * rpa / params.q


def psi_fn(m: float, point: ModuliPoint, params: MapParams) -> float:
    """Psi(m) = (1/n1 - 1/n0) m K(m)^2 with n0, n1 solved for the branch
    targets of (point, params).

    Strictly increasing on (0, 1), with Psi(0+) = pi^2 (p^2 - (r+a)^2)/q^2
    and Psi(1-) = +inf; solve_tau roots Psi(m) = pi^2 b^2 / q^2.
    """
    return _psi(m, *_nu_pair(m, *_branch_targets(point, params)))


def _psi(m: float, nu0: float, nu1: float) -> float:
    return (nu1 - nu0) * complete_K(m) ** 2


def _taus_from_nu(m: float, nu0: float, nu1: float) -> tuple[float, float, float]:
    den = nu1 - nu0
    tau1 = -nu0 / den + 0.0  # +0.0 normalizes -0.0 in the first limit case
    tau2 = (m - nu0) / den
    tau3 = (1.0 - nu0) / den
    return tau1, tau2, tau3


@dataclass(frozen=True)
class TauTriple:
    """The solved triple together with its derived elliptic data.

    ``n0`` is -inf in the first limit case (tau1 = 0); ``n1`` equals 1 in the
    second limit case (tau2 = 1) and equals m when r + a = 0 (tau3 = 1).
    A is the first-integral constant 4 pi^2 (tau1+tau2+tau3-1); c >= 0 and d
    (with sign -sgn(r+a)) are the angular first integrals.
    """

    tau1: float
    tau2: float
    tau3: float
    m: float
    n0: float
    n1: float
    A: float
    c: float
    d: float

    @property
    def taus(self) -> tuple[float, float, float]:
        return (self.tau1, self.tau2, self.tau3)


def _tau_triple(m: float, nu0: float, nu1: float, sgn_rpa: float) -> TauTriple:
    tau1, tau2, tau3 = _taus_from_nu(m, nu0, nu1)
    n0 = m / nu0 if nu0 != 0.0 else -math.inf
    n1 = m / nu1
    A = 4.0 * math.pi**2 * (tau1 + tau2 + tau3 - 1.0)
    c = 2.0 * math.pi * math.sqrt(max(tau1 * tau2 * tau3, 0.0) + 0.0)
    d2 = max((1.0 - tau1) * (1.0 - tau2) * (tau3 - 1.0), 0.0)
    d = -sgn_rpa * 2.0 * math.pi * math.sqrt(d2) + 0.0
    return TauTriple(tau1, tau2, tau3, m, n0, n1, A, c, d)


def solve_tau(point: ModuliPoint, params: MapParams) -> TauTriple:
    """Solve the three integral conditions for (tau1, tau2, tau3).

    Outer bracketed root find on m in (0, 1) against Psi(m) = pi^2 b^2/q^2
    to xtol Tolerances.solver (monotone, so the bracket is guaranteed for
    feasible input), with the characteristics n0, n1 solved once at every
    distinct m: brentq re-evaluates the bracket ends of the march, and the
    root is its last evaluation.  Limit cases return tau1 = 0 / tau2 = 1
    exactly.
    """
    if params.regime is Regime.CIRCLE_FAMILY:
        raise InfeasibleParametersError(
            "circle-family parameters have no tau triple; use the constant-"
            "latitude map family instead"
        )
    target_psi = (math.pi * point.b / params.q) ** 2
    targets = _branch_targets(point, params)
    nu_pair = functools.cache(lambda m: _nu_pair(m, *targets))

    def f(m: float) -> float:
        return _psi(m, *nu_pair(m)) - target_psi

    # expand to a sign-change bracket; Psi is increasing so march toward the
    # endpoint whose limit lies beyond the target
    if f(0.5) >= 0.0:
        lo_b, hi_b = 0.25, 0.5
        while f(lo_b) > 0.0:
            lo_b *= 0.25
            if lo_b < 1e-12:
                raise InfeasibleParametersError(
                    "Psi(m) exceeds the target down to m ~ 0; parameters "
                    "violate (r+a)^2 + b^2 > p^2"
                )
    else:
        lo_b, hi_b = 0.5, 0.75
        while f(hi_b) < 0.0:
            hi_b = 0.5 * (hi_b + 1.0)
            if 1.0 - hi_b < 1e-12:
                raise InfeasibleParametersError(
                    "root of Psi(m) lies beyond m = 1 - 1e-12; b is too "
                    "large to resolve"
                )
    m_root = brentq(f, lo_b, hi_b, xtol=Tolerances.solver, rtol=8.9e-16,
                    maxiter=300)

    nu0, nu1 = nu_pair(m_root)
    sgn_rpa = float(np.sign(params.r_plus_a(point)))
    return _tau_triple(m_root, nu0, nu1, sgn_rpa)


def third_limit_asymptote(point: ModuliPoint, p: int, q: int, r: int):
    """Limiting tau data and latitude on the circle-family boundary.

    At (r+a)^2 + b^2 = p^2 the solver degenerates (m -> 0) and the maps
    converge to the constant-latitude family at
    phi0 = arccos(sqrt(4 p^2 - q^2) / (2 b)); the taus converge to
    tau1 = tau2 = (4 p^2 - q^2)/(4 b^2), tau3 = p^2/b^2.
    """
    require_circle_boundary(
        point, p, r,
        f" is not on the circle-family boundary (tolerance {CIRCLE_TOL})")
    if 4 * p * p < q * q:
        raise ValueError(f"4 p^2 = {4 * p * p} < q^2 = {q * q}: no limiting latitude")
    b = point.b
    tau12 = (4.0 * p * p - q * q) / (4.0 * b * b)
    tau3 = p * p / (b * b)
    phi0 = math.acos(math.sqrt(4.0 * p * p - q * q) / (2.0 * b))
    return (tau12, tau12, tau3), phi0


# --------------------------------------------------------------------------
# quadrature oracle for the three defining integrals
# --------------------------------------------------------------------------


def _cubic_quad(weight: Callable[[float], float], tau1: float, tau2: float,
                tau3: float) -> float:
    """integral of weight(t) / sqrt((t-tau1)(tau2-t)(tau3-t)) over [tau1,tau2]
    via t = tau1 + (tau2-tau1) sin^2 s, which removes both endpoint roots."""

    dt = tau2 - tau1

    def g(s: float) -> float:
        t = tau1 + dt * math.sin(s) ** 2
        return 2.0 * weight(t) / math.sqrt(tau3 - t)

    val, _ = quad(g, 0.0, math.pi / 2, epsabs=1e-12, epsrel=1e-13, limit=200)
    return val


def lattice_integrals(tau1: float, tau2: float,
                      tau3: float) -> tuple[float, float, float]:
    """Adaptive quadrature of the three defining integrals.

    The second (resp. third) integrand is improper when tau1 = 0 (resp.
    tau2 = 1); those are returned as their limits, pi.
    """
    one = _cubic_quad(lambda t: 1.0, tau1, tau2, tau3)
    if tau1 == 0.0:
        two = math.pi
    else:
        w2 = math.sqrt(tau1 * tau2 * tau3)
        two = _cubic_quad(lambda t: w2 / t, tau1, tau2, tau3)
    if tau2 == 1.0:
        three = math.pi
    else:
        w3 = math.sqrt((1.0 - tau1) * (1.0 - tau2) * (tau3 - 1.0))
        three = _cubic_quad(lambda t: w3 / (1.0 - t), tau1, tau2, tau3)
    return one, two, three


def integral_residuals(tau: TauTriple, point: ModuliPoint,
                       params: MapParams) -> tuple[float, float, float]:
    """Absolute residuals of the three defining integrals against their
    quantized right-hand sides 2 pi b/q, 2 pi p/q, 2 pi |r+a|/q."""
    i1, i2, i3 = lattice_integrals(tau.tau1, tau.tau2, tau.tau3)
    q = params.q
    rpa = params.r_plus_a(point)
    return (
        abs(i1 - 2.0 * math.pi * point.b / q),
        abs(i2 - 2.0 * math.pi * params.p / q),
        abs(i3 - 2.0 * math.pi * abs(rpa) / q),
    )
