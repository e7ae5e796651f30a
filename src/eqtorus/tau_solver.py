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
iteration on numpy arrays in the state (m1 = 1 - m, t, u) of each row, no
loop nested in another, every derivative in closed form (DLMF 19.4(i),
19.25.1).  Every iterate stays inside a box or bracket known in advance: t
and u in boxes whose ends have Phi known in closed form or bounded below,
and m1 in the bracket a table of Psi at fixed m gives each row.  The
table, psi_fn and solve_n are the fixed-m case of the iteration, solve_tau
its one-row case.

Limit cases are detected exactly from the integer data (and from `a` when it
is given as an exact rational): p/q = 1/2 forces tau1 = 0 (n0 = -inf) and
|r+a|/q = 1/2 forces tau2 = 1 (n1 = 1).  The theta branch is parametrized
internally by nu0 = m/n0 = -t^2 <= 0, which stays bounded through the first
limit case; the alpha branch by n1 = m + (1-m) s^2 with s algebraic in u
(_Branches), which has no square-root end at n1 = m or n1 = 1.  Phi itself
is evaluated in nu0 on the theta branch, by the addition theorem for the
third-kind integral, so the first limit case is the ordinary point t = 0 of
the same formula.

lattice_integrals checks a triple independently of the solve: a quadrature
of the three integrals by _gauss_legendre, the rule that
functional.lambda_bar_quadrature uses too.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import elliprd, elliprf, elliprj

from eqtorus.config import Tolerances
from eqtorus.elliptic import complete_Pi

__all__ = [
    "Regime",
    "ModuliPoint",
    "MapParams",
    "TauTriple",
    "InfeasibleParametersError",
    "ResolutionLimitError",
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


class ResolutionLimitError(RuntimeError):
    """Raised at a feasible point whose root of Psi lies past the end of the
    table, m1 = 1 - m below _TABLE_M1[-1]: the float solve cannot reach it
    (about b = 4.5 for (1,1,0)).  It is a limit of the solver, not of the
    parameters, so it is not an InfeasibleParametersError."""


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
    a_exact: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"lattice height b={self.b!r} must be positive")
        frac = _as_fraction(self.a)
        object.__setattr__(self, "a_exact", frac)
        object.__setattr__(self, "a", float(frac))
        object.__setattr__(self, "b", float(self.b))


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
# the monotone functions Phi, Psi and their batched Newton inversion
# --------------------------------------------------------------------------

# iteration cap of the Newton iteration below; a row that reaches it raises
# RuntimeError naming its (a, b)
MAX_NEWTON_STEPS = 100
# a Newton step of at most this fraction of a variable that fails to halve
# its residual finds that residual at its rounding floor: the variable is done
_STALL_STEP = 1e-4
# m1 = 1 - m of the bracket table: m = 4^-19, ..., 1/4, then 1/2,
# then m1 = 1/4, ..., 2^-39.  Its first end decides the infeasible case,
# its last the resolution limit.
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


def _carlson(m1):
    """K = R_F(0, m1, 1), Ra = R_D(0, m1, 1) and D = R_D(0, 1, m1) at
    m = 1 - m1: with one R_J per branch, all the solve needs (DLMF 19.25.1)."""
    return elliprf(0.0, m1, 1.0), elliprd(0.0, m1, 1.0), elliprd(0.0, 1.0, m1)


_TABLE_CARLSON = _carlson(_TABLE_M1)  # the same for every column


class _Branches:
    """Rows at arrays m, m1 = 1 - m, t and u: nu0 = m/n0 = -t^2, and
    n1 = m + m1 s^2 with s = sin psi = 2u/d, c = cos psi = (1-u)(1+u)/d,
    d = 1 + u^2.  s and c are algebraic in u, so n1 - m = m1 s^2 and
    1 - n1 = m1 c^2 carry no cancellation, and u = 0, 1 give n1 = m, 1."""

    def __init__(self, m, m1, t, u):
        self.m, self.m1, self.t, self.u, self.d = m, m1, t, u, 1.0 + u * u
        self.s, self.c = 2.0 * u / self.d, (1.0 - u) * (1.0 + u) / self.d
        self.n1 = m + m1 * self.s * self.s
        self.nu0, self.nu1 = -t * t, m / self.n1

    def psi(self, K) -> np.ndarray:
        """Psi = (nu1 - nu0) K^2."""
        return (self.nu1 - self.nu0) * K * K


def _newton(targets, X, where, fixed=None, goal=None, bracket=None):
    """(m1, t, u) of every row at its root by one safeguarded Newton
    iteration on arrays, from the starts X; where(rows) names rows.

    A step evaluates each branch once (_phi_theta; DLMF 19.25.1): with
    g = sqrt((t^2+m)(1+t^2)), a0 = m Ra/3 + t^2 K, a1 = n1 D/3 + c^2 K,
    F_t = t g R_J(0, m1, 1, 1+t^2)/3 - (targets[0] - pi/2) has F_t' = a0/g
    and F_a = m1 s c (K + n1 R_J(0, m1, 1, m1 c^2)/3)/sqrt(n1) - targets[1]
    has F_a' = 2 m m1 a1/(n1^(3/2) d); the inner steps are dt0 = -F_t/F_t',
    du0 = -F_a/F_a'.  With ``fixed`` (m, K, Ra, D), m1 stays put.  With a
    goal, the step is the Newton step of F_t = F_a = 0, Psi = goal by block
    elimination: dm = (goal - Psi - 2 t K^2 dt0 - (dnu1/du) K^2 du0)/
    (dPsi/dm), and t, u add dm times their level sets' tangents.  From
    dn/dm = E n (1-n)/((1-m)(n E - (n-m) K)), dnu0/dm = t^2 (1+t^2) (D/3)/a0
    and dnu1/dm = s^2 (D/3)/(n1 a1), so dPsi/dm = (dnu1/dm - dnu0/dm) K^2 +
    (nu1 - nu0) K D/3, dt/dm = -t (1+t^2) (D/6)/a0, du/dm = c s K d/(4 m m1
    a1), and dnu1/du = -4 m m1 s c/(d n1^2); as partial derivatives of Phi
    they hold off the roots too.

    t stays in [0, sqrt(2x (2+x))], x = 2 (targets[0] - pi/2)/pi: by DLMF
    19.16.2, R_J(0, m1, 1, p) >= (3/2) int_0^inf ds/((s+p) (s+1) sqrt s) =
    (3 pi/2)/(sqrt p (sqrt p + 1)), p = 1 + t^2, so Phi - pi/2 >= (pi/2)
    (sqrt(1 + t^2) - 1) for every m, tight as m -> 0 (hence the factor 2).
    u stays in [0, 1].  A step leaving its box bisects towards the end it
    crossed.  m1 stays in its bracket, which narrows by the sign of dm's
    numerator only where both inner steps are at most 1e-9 relative, as
    only there is it the sign at the inner roots; a step leaving it holds
    m1 until they are, then bisects the bracket.

    A variable is done at a Newton step of at most Tolerances.solver in m1
    (or a bracket of a few ulps) or 1e-9 relative in t and u, or when a
    Newton step of at most _STALL_STEP of it (of min(m, m1) for m1) did not
    halve its residual, which is then at its rounding floor.  That step
    counts for m1 only where the inner steps are done, and for t and u only
    where m1's is, so that no other variable's move held the residual up.
    A row with all three done keeps its stepped-to values, which stay
    consistent where m1 is at its own floor, and leaves the batch, so no
    row depends on the others; one still running after MAX_NEWTON_STEPS
    raises RuntimeError.
    """
    if targets[0] < math.pi / 2 or not 0.0 <= targets[1] <= math.pi / 2:
        raise InfeasibleParametersError(
            f"branch targets {targets} outside [pi/2, inf) x [0, pi/2]")
    excess = targets[0] - math.pi / 2
    x = 2.0 * excess / math.pi
    top = np.array([[math.sqrt(2.0 * x * (2.0 + x))], [1.0]])  # of t and u
    # the rows' m1, t, u, their residuals after a small step (else inf),
    # and the rows' data; a finished row leaves Z
    Z = np.vstack([X, np.full((3, len(X[0])), np.inf),
                   *(fixed if goal is None else (goal, *bracket))])
    out, idx = np.empty((3, Z.shape[1])), np.arange(Z.shape[1])
    for _ in range(MAX_NEWTON_STEPS):
        X, R_prev = Z[0:3], Z[3:6]
        m1, t, u = X
        if goal is None:
            m, K, Ra, D = Z[6:]
        else:
            goal_r, lo, hi = Z[6:]
            m = 1.0 - m1
            K, Ra, D = _carlson(m1)
        br = _Branches(m, m1, t, u)
        t2, cc, mm1 = t * t, br.c * br.c, m * m1
        a0 = m * Ra / 3.0 + t2 * K
        a1 = br.n1 * D / 3.0 + cc * K
        F, S = np.zeros((2, *X.shape))  # residuals and their steps
        if excess > 0.0:
            g = np.sqrt((t2 + m) * (1.0 + t2))
            F[1] = t * g * elliprj(0.0, m1, 1.0, 1.0 + t2) / 3.0 - excess
            S[1] = -F[1] * g / a0
        if 0.0 < targets[1] < math.pi / 2:
            rn = np.sqrt(br.n1)
            F[2] = (m1 * br.s * br.c / rn
                    * (K + br.n1 * elliprj(0.0, m1, 1.0, m1 * cc) / 3.0)
                    - targets[1])
            S[2] = -F[2] * br.n1 * rn * br.d / (2.0 * mm1 * a1)
        conv = np.abs(S) <= 1e-9 * X  # rows 1 and 2: the inner steps
        inner = conv[1] & conv[2]
        if goal is not None:
            K2, D3 = K * K, D / 3.0
            F[0] = (goal_r - br.psi(K) - K2 * (
                2.0 * t * S[1]
                - 4.0 * mm1 * br.s * br.c * S[2] / (br.d * br.n1 * br.n1)))
            dpsi = ((br.s * br.s * D3 / (br.n1 * a1)
                     - t2 * (1.0 + t2) * D3 / a0) * K2
                    + (br.nu1 - br.nu0) * K * D3)
            if inner.any():
                np.copyto(lo, m1, where=inner & (F[0] < 0.0))
                np.copyto(hi, m1, where=inner & (F[0] > 0.0))
            m1n = m1 - F[0] / dpsi
            newton_m = (m1n >= lo) & (m1n <= hi)
            if not newton_m.all():
                m1n = np.where(newton_m, m1n,
                               np.where(inner, 0.5 * (lo + hi), m1))
            S[0] = m1n - m1  # dm = -S[0]
            S[1] += t * (1.0 + t2) * (D / 6.0) / a0 * S[0]
            S[2] -= br.c * br.s * K * br.d / (4.0 * mm1 * a1) * S[0]
            conv = np.abs(S) <= 1e-9 * X  # t and u with their tangent
            conv[0] = ((newton_m & (np.abs(S[0]) <= Tolerances.solver))
                       | (hi - lo <= 4.5e-16 * m1))
        Xn = X + S
        ok = (Xn[1:] >= 0.0) & (Xn[1:] <= top)
        if not ok.all():
            Xn[1:] = np.where(ok, Xn[1:], 0.5 * (
                X[1:] + np.where(Xn[1:] < 0.0, 0.0, top)))
        R = np.abs(F)
        stalled = R >= 0.5 * R_prev
        done = (conv | stalled).all(axis=0)
        small = np.abs(Xn - X) <= _STALL_STEP * X
        small[1:] &= ok & conv[0]
        if goal is not None:
            small[0] = newton_m & inner & (
                np.abs(S[0]) <= _STALL_STEP * np.minimum(m, m1))
        Z[3:6] = np.where(small, R, np.inf)
        Z[0:3] = Xn
        if done.any():
            out[:, idx[done]] = Xn[:, done]
            Z, idx = Z[:, ~done], idx[~done]
            if not idx.size:
                return out
    raise RuntimeError(f"Newton solve not converged in {MAX_NEWTON_STEPS} "
                       f"steps at {where(idx)}")


def _start(targets: tuple[float, float], m) -> list[np.ndarray]:
    """Starting t and u at m: their roots as m -> 0, where Phi - pi/2 =
    (pi/2) (sqrt(1 + t^2) - 1) on the theta branch and Phi = (pi/2)
    s/sqrt(m + s^2) on the alpha branch (u = 1 at a target of pi/2)."""
    x = 2.0 * (targets[0] - math.pi / 2) / math.pi
    t0 = np.full(m.shape, math.sqrt(max(x, 0.0) * (2.0 + x)))
    if targets[1] == math.pi / 2:
        return [t0, np.ones_like(m)]
    g = min(2.0 * targets[1] / math.pi, 1.0 - 1e-6)
    s = np.minimum(np.sqrt(m) * (g / math.sqrt(1.0 - g * g)), 1.0 - 1e-6)
    return [t0, s / (1.0 + np.sqrt((1.0 - s) * (1.0 + s)))]


def _fixed_m(targets: tuple[float, float], m: float) -> tuple[_Branches, float]:
    """Both branches solved at the one given m, and K(m)."""
    m = np.array([float(m)])
    fixed = (m, *_carlson(1.0 - m))
    _, t, u = _newton(targets, [1.0 - m, *_start(targets, m)],
                      lambda rows: f"m = {m[0]!r}", fixed=fixed)
    return _Branches(m, 1.0 - m, t, u), float(fixed[1][0])


def solve_n(target: float, branch: str, m: float) -> float:
    """Invert Phi(. | m) = target on the requested characteristic branch.

    branch='theta' solves on n < 0 (target >= pi/2, value -inf iff target is
    exactly pi/2); branch='alpha' solves on [m, 1] (target in [0, pi/2],
    value m at 0 and 1 at pi/2).  The one-row, fixed-m case of the Newton
    iteration of solve_taus (_newton); no target is clamped.
    """
    if branch not in ("theta", "alpha"):
        raise ValueError(f"unknown branch {branch!r}")
    target = float(target)
    targets = (target, 0.0) if branch == "theta" else (math.pi / 2, target)
    br, _ = _fixed_m(targets, m)
    if branch == "alpha":
        return float(br.n1[0])
    return float(br.m[0] / br.nu0[0]) if br.t[0] > 0.0 else -math.inf


def _branch_targets(point: ModuliPoint,
                    params: MapParams) -> tuple[float, float]:
    """The branch targets pi p/q and pi |r+a|/q, exactly pi/2 in the limit
    cases that params.regime names (pi p/q may round below pi/2)."""
    first = params.regime in (Regime.FIRST_LIMIT, Regime.HYBRID_LIMIT)
    second = params.regime in (Regime.SECOND_LIMIT, Regime.HYBRID_LIMIT)
    rpa = abs(float(params.r + point.a_exact))
    return (math.pi / 2 if first else math.pi * params.p / params.q,
            math.pi / 2 if second else math.pi * rpa / params.q)


def psi_fn(m: float, point: ModuliPoint, params: MapParams) -> float:
    """Psi(m) = (1/n1 - 1/n0) m K(m)^2 with n0, n1 solved for the branch
    targets of (point, params).

    Strictly increasing on (0, 1), with Psi(0+) = pi^2 (p^2 - (r+a)^2)/q^2
    and Psi(1-) = +inf; solve_tau roots Psi(m) = pi^2 b^2 / q^2.
    """
    br, K = _fixed_m(_branch_targets(point, params), m)
    return float(br.psi(K)[0])


@dataclass(frozen=True)
class TauTriple:
    """The solved triple together with its derived elliptic data.

    ``n0`` is -inf in the first limit case (tau1 = 0); ``n1`` equals 1 in the
    second limit case (tau2 = 1) and equals m when r + a = 0 (tau3 = 1).
    A is the first-integral constant 4 pi^2 (tau1+tau2+tau3-1); c >= 0 and d
    (with sign -sgn(r+a)) are the angular first integrals; gap2 = 1 - tau2
    and gap3 = tau3 - 1 as computed, free of the taus' cancellation near 1.
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
    gap2: float
    gap3: float

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
    taus = (tau1, tau2, tau3)
    # the taus are integers over powers of two; int / int rounds correctly
    (i1, d1), (i2, d2), (i3, d3) = (v.as_integer_ratio() for v in taus)
    d = max(d1, d2, d3)
    m = (i2 * (d // d2) - i1 * (d // d1)) / (i3 * (d // d3) - i1 * (d // d1))
    n0 = m / nu0 if nu0 != 0.0 else -math.inf
    n1 = 1.0 if gap2 == 0.0 else m / nu1
    A = 4.0 * math.pi**2 * (tau1 + tau2 + tau3 - 1.0)
    c = 2.0 * math.pi * math.sqrt(max(tau1 * tau2 * tau3, 0.0) + 0.0)
    d2 = max((1.0 - tau1) * (1.0 - tau2) * (tau3 - 1.0), 0.0)
    d = -sgn_rpa * 2.0 * math.pi * math.sqrt(d2) + 0.0
    return TauTriple(tau1, tau2, tau3, m, n0, n1, A, c, d, gap2, gap3)


def solve_taus(points, params: MapParams) -> list:
    """Solve the three integral conditions at every point of one a-column.

    ``points`` share one a (exactly) and ``params`` holds for all of them;
    the result has, per point, its TauTriple or the
    InfeasibleParametersError or ResolutionLimitError that solve_tau would
    raise there.  The branch
    targets pi p/q and pi |r+a|/q are the column's, so Psi(m) is one
    function of m for the whole column and only its target pi^2 b^2/q^2
    varies by row.  A table of Psi at the fixed m of _TABLE_M1 (the
    fixed-m case of _newton) gives every row its bracket and start; then
    all rows run one safeguarded Newton iteration on (m1 = 1 - m, t, u),
    no loop nested in another (_newton), and a row that does not converge
    raises RuntimeError.  Every operation is elementwise, so a row's triple
    is bit-identical whatever the other rows of the call.  Limit cases give
    tau1 = 0 / tau2 = 1 exactly.
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

    def where(rows) -> str:  # the (a, b) of rows, for an error message
        return "; ".join(f"(a, b) = ({points[i].a!r}, {points[i].b!r})"
                         for i in rows)

    table_m = 1.0 - _TABLE_M1
    table = _Branches(table_m, _TABLE_M1, *_newton(
        targets, [_TABLE_M1, *_start(targets, table_m)],
        lambda rows: where(range(len(points))),
        fixed=(table_m, *_TABLE_CARLSON))[1:])
    psi_table = table.psi(_TABLE_CARLSON[0])
    goal = np.array([(math.pi * pt.b / params.q) ** 2 for pt in points])
    out: list = [None] * len(points)
    j = np.searchsorted(psi_table, goal)
    for i in np.flatnonzero(psi_table[0] > goal):
        out[i] = InfeasibleParametersError(
            "Psi(m) exceeds the target down to m ~ 0; parameters violate "
            "(r+a)^2 + b^2 > p^2")
    for i in np.flatnonzero(j == psi_table.size):
        out[i] = ResolutionLimitError(
            f"root of Psi(m) lies beyond m = 1 - {_TABLE_M1[-1]:.2g}; b is "
            "too large to resolve")
    rows = np.flatnonzero((psi_table[0] <= goal) & (j < psi_table.size))
    if rows.size:
        # Psi rises along the table: its entry hi >= goal, lo < goal
        hi = np.maximum(j[rows], 1)
        lo = hi - 1
        goal_r = goal[rows]
        w = (goal_r - psi_table[lo]) / (psi_table[hi] - psi_table[lo])
        start = [v[lo] + w * (v[hi] - v[lo])
                 for v in (_TABLE_M1, table.t, table.u)]
        m1, t, u = _newton(targets, start, lambda i: where(rows[i]),
                           goal=goal_r, bracket=(_TABLE_M1[hi], _TABLE_M1[lo]))
        br = _Branches(1.0 - m1, m1, t, u)
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
    one-row case of solve_taus, whose InfeasibleParametersError or
    ResolutionLimitError it raises.
    """
    (tau,) = solve_taus([point], params)
    if isinstance(tau, Exception):
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
# the package's one quadrature rule, and the oracle of the defining integrals
# --------------------------------------------------------------------------

# _gauss_legendre's stopping tolerances, and the most panels it tries
_QUAD_ABS, _QUAD_REL = 1e-11, 1e-12
_QUAD_MAX_PANELS = 4096


@functools.cache
def _gauss_legendre_01():
    """16-point Gauss-Legendre nodes and weights on [0, 1], made on first
    use: leggauss's LAPACK eigensolver adds about 0.75 MB to a process's
    peak memory, and most processes (scan among them) never integrate."""
    x, w = np.polynomial.legendre.leggauss(16)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_legendre(f, a: float, b: float) -> float:
    """int_a^b f by composite 16-point Gauss-Legendre, f analytic on [a, b]
    and evaluated on an array of nodes; the package's one quadrature rule.

    The panels are doubled from 1 until two successive estimates agree to
    max(1e-11, 1e-12 |value|), each level evaluating f once on all of its
    nodes; RuntimeError if 4096 panels do not settle.
    """
    nodes, weights = _gauss_legendre_01()
    prev = math.nan  # no estimate to agree with at one panel
    panels = 1
    while panels <= _QUAD_MAX_PANELS:
        h = (b - a) / panels
        x = a + h * (np.arange(panels)[:, None] + nodes)
        val = h * float(np.sum(f(x) @ weights))
        diff = abs(val - prev)
        if diff <= max(_QUAD_ABS, _QUAD_REL * abs(val)):
            return val
        prev = val
        panels *= 2
    raise RuntimeError(
        f"Gauss-Legendre quadrature did not settle within "
        f"{_QUAD_MAX_PANELS} panels (last two estimates differ by {diff:.3g})")


def lattice_integrals(tau: TauTriple) -> tuple[float, float, float]:
    """Quadrature of the three defining integrals of
    weight(t) / sqrt((t-tau1)(tau2-t)(tau3-t)) over [tau1, tau2].

    t = tau1 + D sin^2 s, D = tau2 - tau1, removes both endpoint roots and
    leaves layers of width sqrt(tau1/D) at s = 0 and sqrt(gap2/D) at
    s = pi/2, which the double-exponential substitution s = (pi/2) / (1 +
    exp(-pi sinh v)) (Takahasi & Mori, Publ. RIMS 9, 1974) spreads over
    v in [-4, 4] for _gauss_legendre; there both ends lie within 1e-37.
    s and pi/2 - s are each formed directly, so sin s, cos s and ds/dv =
    2 cosh v s (pi/2 - s) carry no cancellation.  1 - t = gap2 + D cos^2 s,
    tau3 - t = gap3 + (1 - t) and the third weight sqrt((1-tau1) gap2 gap3)
    / (1-t) come from the carried gaps.  The second (third) integrand is
    improper at tau1 = 0 (tau2 = 1) and is returned as its limit, pi.
    """
    t1, gap2, gap3, D = tau.tau1, tau.gap2, tau.gap3, tau.tau2 - tau.tau1
    w2 = math.sqrt(t1 * tau.tau2 * tau.tau3)
    w3 = math.sqrt((1.0 - t1) * gap2 * gap3)

    def integral(weight):  # weight(t, 1 - t)
        def g(v):
            x = math.pi * np.sinh(v)  # |x| <= 85.7: exp(+-x) stays finite
            s, rest = 0.5 * math.pi / (1.0 + np.exp([-x, x]))  # rest = pi/2 - s
            one_t = gap2 + D * np.sin(rest) ** 2
            return (4.0 * np.cosh(v) * s * rest
                    * weight(t1 + D * np.sin(s) ** 2, one_t)
                    / np.sqrt(gap3 + one_t))

        return _gauss_legendre(g, -4.0, 4.0)

    return (integral(lambda t, one_t: 1.0),
            math.pi if t1 == 0.0 else integral(lambda t, one_t: w2 / t),
            math.pi if gap2 == 0.0 else integral(lambda t, one_t: w3 / one_t))


def integral_residuals(tau: TauTriple, point: ModuliPoint,
                       params: MapParams) -> tuple[float, float, float]:
    """Absolute residuals of the three defining integrals against their
    quantized right-hand sides 2 pi b/q, 2 pi p/q, 2 pi |r+a|/q."""
    i1, i2, i3 = lattice_integrals(tau)
    q = params.q
    rpa = params.r_plus_a(point)
    return (
        abs(i1 - 2.0 * math.pi * point.b / q),
        abs(i2 - 2.0 * math.pi * params.p / q),
        abs(i3 - 2.0 * math.pi * abs(rpa) / q),
    )
