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
each characteristic branch and Psi is monotone in m.  The branch targets
depend on (a, p, q, r) only, so every b of an a-column inverts the same
functions and solve_taus solves the column at once: one safeguarded Newton
iteration on numpy arrays, outer in m1 = 1 - m and inner on each branch,
with every derivative in closed form (DLMF 19.4(i), 19.25.1).  Every
iterate stays inside a bracket known in advance: the inner ones have ends
whose Phi is known in closed form or bounded from below (_theta_t,
_alpha_u), and a table of Psi at fixed m brackets the outer root of every
row.  solve_tau and solve_n are the one-row cases of the same code.

Limit cases are detected exactly from the integer data (and from `a` when it
is given as an exact rational): p/q = 1/2 forces tau1 = 0 (n0 = -inf) and
|r+a|/q = 1/2 forces tau2 = 1 (n1 = 1).  The theta branch is parametrized
internally by nu0 = m/n0 = -t^2 <= 0, which stays bounded through the first
limit case; the alpha branch by n1 = m + (1-m) s^2 with s algebraic in u
(_alpha_u), which has no square-root end at n1 = m or n1 = 1.  Phi itself
is evaluated in nu0 on the theta branch, by the addition theorem for the
third-kind integral, so the first limit case is the ordinary point t = 0 of
the same formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import elliprd, elliprf, elliprj

from eqtorus.config import Tolerances
from eqtorus.elliptic import complete_Pi

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
    "solve_taus",
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
# the monotone functions Phi, Psi and their batched Newton inversions
# --------------------------------------------------------------------------

# iteration cap of every Newton solve below; a row that reaches it raises
# RuntimeError naming its (a, b)
MAX_NEWTON_STEPS = 100
# a Newton step of at most this fraction of |x| that fails to halve |f|
# means f is at its rounding floor, and the row stops there
_STALL_STEP = 1e-4
# m1 = 1 - m of the outer bracket table: m = 4^-19, ..., 1/4, then 1/2,
# then m1 = 1/4, ..., 2^-39.  Its ends decide the two infeasible cases.
_TABLE_M1 = np.array([1.0 - 4.0**-k for k in range(19, 0, -1)] + [0.5]
                     + [2.0**-k for k in range(2, 40)])


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


def _newton(fdf, x, lo, hi, xtol, labels) -> np.ndarray:
    """Solve f(x) = 0 row by row, f increasing on each row's bracket [lo, hi]
    that holds its root, by safeguarded Newton on numpy arrays.

    fdf(idx, x) returns f and f' at x for the rows idx.  Each iterate
    narrows its row's bracket by the sign of f; a Newton step that does not
    land strictly inside the bracket is replaced by a bisection.  A row
    stops at f = 0, at a Newton step of at most xtol(x) or a bracket of a
    few ulps (its result the stepped-to point), or when a Newton step of at
    most _STALL_STEP |x| fails to halve |f|: f is at its rounding floor
    there, and the better of the last two iterates is the result.  Every operation is elementwise, so a row's
    iterates do not depend on the other rows of the batch.  A row still
    running after MAX_NEWTON_STEPS raises RuntimeError naming its label.
    """
    out = np.array(x, dtype=float)
    x, idx = out.copy(), np.arange(out.size)
    lo, hi = np.full(x.shape, lo), np.full(x.shape, hi)
    x_prev, f_prev = x, np.full(x.shape, np.inf)  # |f| after a small step
    for _ in range(MAX_NEWTON_STEPS):
        if not idx.size:
            return out
        f, df = fdf(idx, x)
        af = np.abs(f)
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        xn = x - f / df
        newton = (xn > lo) & (xn < hi)
        xn = np.where(newton, xn, 0.5 * (lo + hi))
        step = np.abs(xn - x)
        stalled = af >= 0.5 * f_prev
        done = (stalled | (f == 0.0) | (newton & (step <= xtol(x)))
                | (hi - lo <= 4.5e-16 * np.abs(x)))
        if done.any():
            best = np.where(f_prev < af, x_prev, x)
            out[idx[done]] = np.where(stalled, best,
                                      np.where(f == 0.0, x, xn))[done]
            go = ~done
            idx, x, xn, lo, hi, af, step, newton = (
                v[go] for v in (idx, x, xn, lo, hi, af, step, newton))
        f_prev = np.where(newton & (step <= _STALL_STEP * np.abs(x)), af,
                          np.inf)
        x_prev, x = x, xn
    if not idx.size:
        return out
    raise RuntimeError(
        f"Newton solve not converged in {MAX_NEWTON_STEPS} steps at "
        + "; ".join(dict.fromkeys(labels[idx])))


def _inner_xtol(x: np.ndarray) -> np.ndarray:
    # Newton converges quadratically here: after a step of 1e-9 |x| the
    # error is of order 1e-18 |x| times the curvature scale
    return 1e-9 * np.abs(x)


def _theta_t(target: float, m, m1, K, Ra, t0, labels) -> np.ndarray:
    """t = sqrt(-nu0) >= 0, nu0 = m/n0, with Phi(n0 | m) = target, for arrays
    m, m1 = 1 - m, K = K(m), Ra = R_D(0, m1, 1) and start t0.

    With nu = -t^2, Phi = pi/2 + t sqrt((t^2+m)(1+t^2)) R_J(0, m1, 1, 1+t^2)/3
    and dPhi/dt = ((1+t^2) K - E)/sqrt((t^2+m)(1+t^2)), whose numerator is
    m Ra/3 + t^2 K (DLMF 19.25.1).  Phi rises from pi/2 at t = 0, and with
    x = 2 (target - pi/2)/pi it reaches the target by t^2 = 2x (2 + x):
    with y = 1 - m <= 1 and p = 1 + t^2, the integral form (DLMF 19.16.2)
    R_J(0, y, 1, p) = (3/2) int_0^inf ds / ((s+p) sqrt(s (s+y) (s+1))) is at
    least (3/2) int_0^inf ds / ((s+p) (s+1) sqrt s) = (3 pi/2) / (sqrt p
    (sqrt p + 1)), which gives Phi - pi/2 >= (pi/2) (sqrt(1 + t^2) - 1).
    The bound is tight as m -> 0, so the factor 2 keeps rounding from
    closing the bracket [0, sqrt(2x (2 + x))].
    """
    if target < math.pi / 2:
        raise InfeasibleParametersError(
            f"theta-branch target {target} below pi/2")
    excess = target - math.pi / 2
    if excess == 0.0:
        return np.zeros_like(m)

    def fdf(idx, t):
        mm, t2 = m[idx], t * t
        g = np.sqrt((t2 + mm) * (1.0 + t2))
        f = t * g * elliprj(0.0, m1[idx], 1.0, 1.0 + t2) / 3.0 - excess
        return f, (mm * Ra[idx] / 3.0 + t2 * K[idx]) / g

    x = 2.0 * excess / math.pi
    return _newton(fdf, t0, 0.0, math.sqrt(2.0 * x * (2.0 + x)), _inner_xtol,
                   labels)


def _alpha_u(target: float, m, m1, K, D, u0, labels) -> np.ndarray:
    """u in [0, 1] with Phi(n1 | m) = target, n1 = m + m1 s^2 and
    s = 2u/(1 + u^2), for arrays m, m1 = 1 - m, K = K(m), D = R_D(0, 1, m1)
    and start u0.

    s = sin psi with u = tan(psi/2), so s and c = sqrt(1 - s^2) =
    (1 - u^2)/(1 + u^2) are algebraic in u: n1 - m = m1 s^2 and
    1 - n1 = m1 c^2 carry no cancellation, u = 0 gives n1 = m (Phi = 0) and
    u = 1 gives n1 = 1 (Phi = pi/2).  Then Phi = m1 s c (K + n1 R_J(0, m1,
    1, m1 c^2)/3)/sqrt(n1) and dPhi/du = 2 (n1 E - (n1-m) K)/(n1^(3/2)
    (1 + u^2)), whose numerator is m m1 (n1 D/3 + c^2 K) (DLMF 19.25.1).
    """
    if not 0.0 <= target <= math.pi / 2:
        raise InfeasibleParametersError(
            f"alpha-branch target {target} outside [0, pi/2]")
    if target == 0.0:
        return np.zeros_like(m)
    if target == math.pi / 2:
        return np.ones_like(m)

    def fdf(idx, u):
        mm, yy, KK = m[idx], m1[idx], K[idx]
        s, c, d = _sin_cos(u)
        n = mm + yy * s * s
        rn = np.sqrt(n)
        f = (yy * s * c / rn
             * (KK + n * elliprj(0.0, yy, 1.0, yy * c * c) / 3.0) - target)
        return f, 2.0 * mm * yy * (n * D[idx] / 3.0 + c * c * KK) / (n * rn * d)

    return _newton(fdf, u0, 0.0, 1.0, _inner_xtol, labels)


def _sin_cos(u):
    """s = 2u/(1+u^2), c = (1-u)(1+u)/(1+u^2) and d = 1+u^2."""
    d = 1.0 + u * u
    return 2.0 * u / d, (1.0 - u) * (1.0 + u) / d, d


def _start(targets: tuple[float, float], m) -> tuple[np.ndarray, np.ndarray]:
    """Starting t and u for the inner solves at m without a previous
    solution: their roots as m -> 0, where Phi - pi/2 = (pi/2)
    (sqrt(1 + t^2) - 1) on the theta branch and Phi = (pi/2) s/sqrt(m + s^2)
    on the alpha branch."""
    x = 2.0 * (targets[0] - math.pi / 2) / math.pi
    t0 = np.full(m.shape, math.sqrt(max(x, 0.0) * (2.0 + x)))
    g = min(2.0 * targets[1] / math.pi, 1.0 - 1e-6)
    s = np.minimum(np.sqrt(m) * (g / math.sqrt(1.0 - g * g)), 1.0 - 1e-6)
    return t0, s / (1.0 + np.sqrt((1.0 - s) * (1.0 + s)))


class _Branches:
    """Both inner solutions at arrays m and m1 = 1 - m, with what Psi and
    dPsi/dm are made of: K = R_F(0, m1, 1), Ra = R_D(0, m1, 1) and
    D = R_D(0, 1, m1) (DLMF 19.25.1), computed once per m."""

    def __init__(self, targets, m, m1, t0, u0, labels):
        self.m, self.m1 = m, m1
        self.K = K = elliprf(0.0, m1, 1.0)
        self.Ra = elliprd(0.0, m1, 1.0)
        self.D = elliprd(0.0, 1.0, m1)
        self.t = _theta_t(targets[0], m, m1, K, self.Ra, t0, labels)
        self.u = _alpha_u(targets[1], m, m1, K, self.D, u0, labels)
        self.s, self.c, _ = _sin_cos(self.u)
        self.n1 = m + m1 * self.s * self.s
        self.nu0 = -self.t * self.t
        self.nu1 = m / self.n1

    def psi(self) -> np.ndarray:
        """Psi = (nu1 - nu0) K^2."""
        return (self.nu1 - self.nu0) * self.K * self.K

    def dpsi_dm(self) -> np.ndarray:
        """dPsi/dm = (dnu1/dm - dnu0/dm) K^2 + 2 (nu1 - nu0) K dK/dm, with
        dK/dm = D/6, and from dn/dm = E n (1-n)/((1-m)(n E - (n-m) K)) on
        each branch, dnu0/dm = t^2 (1+t^2) (D/3)/(m Ra/3 + t^2 K) and
        dnu1/dm = s^2 (D/3)/(n1 (n1 D/3 + c^2 K))."""
        K, D3, t2 = self.K, self.D / 3.0, self.t * self.t
        dnu0 = t2 * (1.0 + t2) * D3 / (self.m * self.Ra / 3.0 + t2 * K)
        dnu1 = (self.s * self.s * D3
                / (self.n1 * (self.n1 * D3 + self.c * self.c * K)))
        return (dnu1 - dnu0) * K * K + (self.nu1 - self.nu0) * K * D3


def solve_n(target: float, branch: str, m: float) -> float:
    """Invert Phi(. | m) = target on the requested characteristic branch.

    branch='theta' solves on n < 0 (target >= pi/2, value -inf iff target is
    exactly pi/2); branch='alpha' solves on [m, 1] (target in [0, pi/2],
    value m at 0 and 1 at pi/2).  The one-row case of the inner Newton
    solves of solve_taus (_theta_t, _alpha_u), from the starts of _start;
    no target is clamped.
    """
    if branch not in ("theta", "alpha"):
        raise ValueError(f"unknown branch {branch!r}")
    target = float(target)
    targets = (target, 0.0) if branch == "theta" else (math.pi / 2, target)
    br = _branches_at(targets, m)
    if branch == "alpha":
        return float(br.n1[0])
    return float(br.m[0] / br.nu0[0]) if br.t[0] > 0.0 else -math.inf


def _branches_at(targets: tuple[float, float], m: float) -> _Branches:
    """_Branches at the one given m, from the starts of _start."""
    m = np.array([float(m)])
    return _Branches(targets, m, 1.0 - m, *_start(targets, m),
                     np.array([f"m = {m[0]!r}"], dtype=object))


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
    return float(_branches_at(_branch_targets(point, params), m).psi()[0])


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


def _tau_triple(m: float, nu0: float, nu1: float, den: float, gap2: float,
                gap3: float, sgn_rpa: float) -> TauTriple:
    """The triple from the solve's m, nu0, nu1, den = nu1 - nu0 and the gaps
    gap2 = 1 - tau2 and gap3 = tau3 - 1.

    tau2 is 1 - gap2 where that is at least 1/2, so that rounding leaves
    1 - tau2 its own relative accuracy, and (m - nu0)/den below, where tau2
    itself keeps it.  The m stored is the correctly rounded
    (tau2 - tau1)/(tau3 - tau1) of the stored taus: the maps need the two
    to agree, and near m = 1 the solve's m can sit an ulp off that ratio,
    which alone puts 1e-10 into the harmonicity residual at 1 - m ~ 6e-9.
    """
    tau1 = -nu0 / den + 0.0  # +0.0 normalizes -0.0 in the first limit case
    tau2 = 1.0 - gap2 if gap2 <= 0.5 else (m - nu0) / den
    tau3 = 1.0 + gap3
    m = float((Fraction(tau2) - Fraction(tau1))
              / (Fraction(tau3) - Fraction(tau1)))
    n0 = m / nu0 if nu0 != 0.0 else -math.inf
    n1 = 1.0 if gap2 == 0.0 else m / nu1
    A = 4.0 * math.pi**2 * (tau1 + tau2 + tau3 - 1.0)
    c = 2.0 * math.pi * math.sqrt(max(tau1 * tau2 * tau3, 0.0) + 0.0)
    d2 = max((1.0 - tau1) * (1.0 - tau2) * (tau3 - 1.0), 0.0)
    d = -sgn_rpa * 2.0 * math.pi * math.sqrt(d2) + 0.0
    return TauTriple(tau1, tau2, tau3, m, n0, n1, A, c, d)


def solve_taus(points, params: MapParams) -> list:
    """Solve the three integral conditions at every point of one a-column.

    ``points`` share one a (exactly) and ``params`` holds for all of them;
    the result has, per point, its TauTriple or the
    InfeasibleParametersError that solve_tau would raise there.  The branch
    targets pi p/q and pi |r+a|/q are the column's, so Psi(m) is one
    function of m for the whole column and only its target pi^2 b^2/q^2
    varies by row.  A table of Psi at the fixed m of _TABLE_M1 gives every
    row its bracket; then all rows run one safeguarded Newton iteration on
    m1 = 1 - m with the closed-form dPsi/dm, each step solving both
    branches by the inner Newton from the previous step's solution.  A row
    stops at a Newton step of at most Tolerances.solver in m, and a row
    that does not converge raises RuntimeError (_newton).  Every operation is
    elementwise, so a row's triple is bit-identical whatever the other
    rows of the call.  Limit cases give tau1 = 0 / tau2 = 1 exactly.
    """
    points = list(points)
    if not points:
        return []
    if any(pt.a_exact != points[0].a_exact for pt in points):
        raise ValueError("solve_taus takes the points of one a-column")
    if params.regime is Regime.CIRCLE_FAMILY:
        return [InfeasibleParametersError(
            "circle-family parameters have no tau triple; use the constant-"
            "latitude map family instead") for _ in points]
    targets = _branch_targets(points[0], params)
    labels = np.array([f"(a, b) = ({pt.a!r}, {pt.b!r})" for pt in points],
                      dtype=object)

    table_m = 1.0 - _TABLE_M1
    table = _Branches(targets, table_m, _TABLE_M1, *_start(targets, table_m),
                      np.full(_TABLE_M1.size, "; ".join(labels), dtype=object))
    psi_table = table.psi()
    goal = np.array([(math.pi * pt.b / params.q) ** 2 for pt in points])
    out: list = [None] * len(points)
    j = np.searchsorted(psi_table, goal)
    for i in np.flatnonzero(psi_table[0] > goal):
        out[i] = InfeasibleParametersError(
            "Psi(m) exceeds the target down to m ~ 0; parameters violate "
            "(r+a)^2 + b^2 > p^2")
    for i in np.flatnonzero(j == psi_table.size):
        out[i] = InfeasibleParametersError(
            "root of Psi(m) lies beyond m = 1 - 1e-12; b is too large to "
            "resolve")
    rows = np.flatnonzero((psi_table[0] <= goal) & (j < psi_table.size))
    if rows.size:
        # Psi rises along the table: its entry hi >= goal, lo < goal
        hi = np.maximum(j[rows], 1)
        lo = hi - 1
        goal_r, labels_r = goal[rows], labels[rows]
        w = (goal_r - psi_table[lo]) / (psi_table[hi] - psi_table[lo])
        m1 = _TABLE_M1[lo] + w * (_TABLE_M1[hi] - _TABLE_M1[lo])
        t = table.t[lo] + w * (table.t[hi] - table.t[lo])
        u = table.u[lo] + w * (table.u[hi] - table.u[lo])

        def fdf(idx, x):
            br = _Branches(targets, 1.0 - x, x, t[idx], u[idx], labels_r[idx])
            t[idx], u[idx] = br.t, br.u
            return goal_r[idx] - br.psi(), br.dpsi_dm()

        m1 = _newton(fdf, m1, _TABLE_M1[hi], _TABLE_M1[lo],
                     lambda x: Tolerances.solver, labels_r)
        br = _Branches(targets, 1.0 - m1, m1, t, u, labels_r)
        den = br.nu1 - br.nu0
        # 1 - tau2 = (nu1 - m)/den and tau3 - 1 = (1 - nu1)/den, where
        # nu1 - m = m m1 c^2/n1 and 1 - nu1 = m1 s^2/n1 carry no cancellation
        gap2 = br.m * br.m1 * br.c * br.c / (br.n1 * den)
        gap3 = br.m1 * br.s * br.s / (br.n1 * den)
        sgn_rpa = float(np.sign(params.r_plus_a(points[0])))
        for k, i in enumerate(rows):
            out[i] = _tau_triple(*(float(v[k]) for v in (
                br.m, br.nu0, br.nu1, den, gap2, gap3)), sgn_rpa)
    return out


def solve_tau(point: ModuliPoint, params: MapParams) -> TauTriple:
    """Solve the three integral conditions for (tau1, tau2, tau3): the
    one-row case of solve_taus, whose InfeasibleParametersError it raises.
    """
    (tau,) = solve_taus([point], params)
    if isinstance(tau, InfeasibleParametersError):
        raise tau
    return tau


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
