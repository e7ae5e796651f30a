"""Floquet eigenvalue counting for the weighted Hill problems

    -h''(y) + 4 pi^2 l^2 h(y) = lambda rho(y) h(y),
    h(y + b) = e^{-2 pi i l a} h(y),

one problem per Fourier mode l of the torus Laplacian for the conformal
metric rho(y) g_{a,b}.  rho has period P = b/q, so the monodromy over [0, b]
is the q-th power of the one-period monodromy M_P(lambda), and the spectrum
of mode l is the union over j < q of the one-period problems with
multiplier e^{i phi_j}, phi_j = (2 pi l a + 2 pi j)/q.  Each of those is
counted exactly by the oscillation theorem for Hill's equation (Magnus &
Winkler, *Hill's Equation*, 1966; Eastham, *The Spectral Theory of Periodic
Differential Equations*, 1973): its number of eigenvalues below lambda
follows from D = tr M_P(lambda) and the zero count of one solution over
[0, P], so closed spectral gaps count twice by structure.  Both come from
one fixed-step RK4 sweep over [0, P] for a whole batch of lambdas; for a
small batch the sweep runs about sqrt(n) blocks of the period side by side
in one pass (_period_sweep), since numpy then pays per call rather than per
lambda, and Sturm separation gives the zero count from the block ends.
The same sweep, on a finer mesh, gives the monodromy over [0, b] as M_P^q,
and with it the certificates at lambda = 2.  rho is one function with one
period for every mode, so the modes of one map share its samples
(ProfileSet.rho_samples): the finer mesh nests the counting mesh, and
assemble_N2 samples rho once for both and checks its period once.

The mode counts assemble into the Weyl count N(2) of the metric:

    N(2) = 1 + #{0 < lambda_j(0) < 2} + 2 * sum_{l >= 1} #{lambda_j(l) < 2},

where the leading 1 is the flat zero mode (constants, lambda = 0).  Modes
with l^2 >= tau2 + tau3 - tau1 cannot contribute: the Rayleigh quotient gives
lambda_0(l) >= 4 pi^2 l^2 / max(rho) = 2 l^2 / (tau2 + tau3 - tau1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from eqtorus.maps import ProfileSet, build_profiles
from eqtorus.tau_solver import (
    MapParams,
    ModuliPoint,
    TauTriple,
    classify_params,
    phi_fn,
    solve_n,
    solve_tau,
)

__all__ = [
    "SLProblem",
    "ModeCount",
    "SpectrumReport",
    "sl_problem",
    "monodromy",
    "count_below",
    "assemble_N2",
    "n2_lower_bound",
    "ratio_condition",
    "construct_strict_instance",
]

TWO_PI = 2.0 * math.pi

# eigenvalues this close to the threshold are the analytic boundary
# eigenvalues (the map components), classified "at threshold", not counted
AT_THRESHOLD_TOL = 1e-7
# eigenvalues are located to brackets of this width
LAMBDA_XTOL = 1e-11
# interior points per bracket in one multisection round: a round of a few
# brackets runs about sqrt(n) blocks side by side, so a wider round mostly
# adds arithmetic.  Of 3, 7, 15, 31 and 63, only 7 stays within 20 % of the
# fastest both on the criterion-4 instances (15 is fastest there, 63 about
# 1.5x slower) and on the strict instance (3 is fastest, 15 about 1.9x slower)
MULTISECTION = 7
# largest relative defect |rho(y + b/q) - rho(y)| accepted as periodicity
PERIOD_TOL = 1e-9
# monodromy runs on this many times the counting mesh: RK4 phase error
# scales as n^-4, so 4x the steps cut it 256-fold; on the counting mesh the
# l = 1 certificate at (a, b) = (0, 2) is 8.3e-8, too close to its 1e-7 gate
MONODROMY_REFINE = 4
# lambdas x blocks per RK4 step beyond which numpy is bound by arithmetic,
# not by per-call cost; the period sweep uses no more blocks than this allows
WIDTH = 2048


@dataclass(frozen=True)
class SLProblem:
    """One Fourier-mode Hill problem with its Floquet boundary phase."""

    l: int
    rho: object  # vectorized y -> rho(y) > 0, period b / q
    b: float
    bc_phase: float           # 2 pi l a mod 2 pi
    rho_max: float
    q: int = 1                # number of rho periods in [0, b]
    # rho on uniform period meshes, {(P, n steps): samples at the 2n + 1
    # nodes and midpoints}, filled by _period_mesh; sl_problem shares one
    # memo among the modes of a map, a hand-built problem starts empty
    samples: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def trace_target(self) -> float:
        return 2.0 * math.cos(self.bc_phase)

    @property
    def period(self) -> float:
        return self.b / self.q


def sl_problem(profiles: ProfileSet, l: int) -> SLProblem:
    """Hill problem of mode l for the metric induced by the given map."""
    point = profiles.point
    la = l * point.a_exact
    phase = TWO_PI * float(la - math.floor(la))
    t1, t2, t3 = profiles.tau.taus
    rho_max = 2.0 * math.pi**2 * (t2 + t3 - t1)
    return SLProblem(l=int(l), rho=profiles.rho, b=point.b, bc_phase=phase,
                     rho_max=rho_max, q=profiles.params.q,
                     samples=profiles.rho_samples)


# --------------------------------------------------------------------------
# monodromy
# --------------------------------------------------------------------------


def monodromy(problem: SLProblem, lam: float):
    """Fundamental solution matrix over [0, b], as M_P(lam)^q.

    Columns are the solutions with (h, h')(0) = (1, 0) and (0, 1); the
    Wronskian keeps det M = 1, which the caller may use as a health check.
    M_P comes from the period sweep on MONODROMY_REFINE times the counting
    mesh.
    Raises ValueError if rho does not have period P.
    """
    mesh = _period_mesh(problem, lam, MONODROMY_REFINE)
    M_P, _ = _period_sweep(*mesh, np.array([float(lam)]))
    return np.linalg.matrix_power(M_P[:, :, 0], problem.q)


def _rk4_steps(problem: SLProblem, lam_max: float) -> int:
    # fixed-step RK4 phase error ~ (omega P)^5 / (120 n^4); size n for ~1e-10
    omega = math.sqrt(max(lam_max * problem.rho_max,
                          4.0 * math.pi**2 * problem.l**2, 1.0))
    theta = omega * problem.period
    n = int((theta**5 / (120.0 * 1e-10)) ** 0.25) + 1
    return max(n, 100)


def _period_mesh(problem: SLProblem, lam_max: float, refine: int = 1):
    """The (rho, h, k2) arguments of _period_sweep for refine * _rk4_steps
    RK4 steps over one period P.

    rho comes from the problem's memo when it holds this mesh, or the mesh
    MONODROMY_REFINE times finer: linspace(0, P, 2 MONODROMY_REFINE n + 1)
    at that stride is linspace(0, P, 2n + 1) bit for bit, since the two
    steps differ by an exact power of two.  Otherwise rho is sampled and
    stored.  Periodicity is checked on the first mesh sampled for P, at its
    counting nodes; a failed check raises ValueError and stores nothing.
    """
    P = problem.period
    n = _rk4_steps(problem, lam_max)
    memo = problem.samples
    rho = memo.get((P, refine * n))
    if rho is None and refine == 1 and (P, MONODROMY_REFINE * n) in memo:
        rho = memo[P, MONODROMY_REFINE * n][::MONODROMY_REFINE]
    if rho is None:
        y = np.linspace(0.0, P, 2 * refine * n + 1)
        rho = np.asarray(problem.rho(y), dtype=float)
        if not any(period == P for period, _ in memo):
            _check_period(problem, y[::refine], rho[::refine])
        memo[P, refine * n] = rho
    return rho, P / (refine * n), 4.0 * math.pi**2 * problem.l**2


def _check_period(problem: SLProblem, y: np.ndarray, rho: np.ndarray) -> None:
    """Raise ValueError unless rho(y + P) = rho(y) to PERIOD_TOL relative."""
    P = problem.period
    defect = float(np.max(np.abs(problem.rho(y + P) - rho)) / np.max(np.abs(rho)))
    if not defect <= PERIOD_TOL:
        raise ValueError(f"rho is not periodic with period b/q = {P:.9g} "
                         f"(q = {problem.q}): relative defect {defect:.3g}; a "
                         "wrong q or a tau solve that does not close the profile")


def _rk4_step(H, V, g0, gm, g1, h) -> None:
    """One RK4 step of size h for (H, V) = (h, h') under h'' = g h, in place,
    with g at the step's start, middle and end; h = 0 is the identity."""
    h6 = h / 6.0
    k1v = g0 * H
    k2h = V + 0.5 * h * k1v
    k2v = gm * (H + 0.5 * h * V)
    k3h = V + 0.5 * h * k2v
    k3v = gm * (H + 0.5 * h * k2h)
    k4h = V + h * k3v
    k4v = g1 * (H + h * k3h)
    H += h6 * (V + 2.0 * k2h + 2.0 * k3h + k4h)
    V += h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)


def _period_sweep(rho: np.ndarray, h: float, k2: float, lams: np.ndarray):
    """(M_P(lambda), zeros of s in (0, P]) for every lambda in one sweep;
    M_P[r, c, k] is entry (r, c) of the one-period matrix at lams[k].

    Fixed-step RK4 with step h over one period P = n h, n = (rho.size - 1)/2,
    with rho sampled at the step nodes and midpoints; s is the solution with
    s(0) = 0, s'(0) = 1.

    A step over a few lambdas costs numpy's per-call overhead, not its
    arithmetic, so the n steps are cut into B blocks of L steps each (the
    last block padded with h = 0 steps, exact identities), run side by side
    from the identity.  The ordered product of the block matrices gives M_P
    and (s0, s0') at each block start.  Each block counts the sign changes
    z of c2 < 0 and zbar of c2 > 0 for its second column c2; on block 0, s
    is c2.  On a later block, s = s0' c2 has z zeros if s0 = 0 < s0' and
    zbar if s0' < 0 = s0; otherwise Sturm separation puts one zero of s
    between consecutive zeros of c2, so s has z or z + 1, as its signs at
    the block's ends decide.  A block's end node takes its sign from the
    next block's composed start, so a zero on a block boundary counts once.
    Separation needs a mesh that resolves every lambda: a step angle
    h sqrt(max |k2 - lambda rho|) above 1 raises ValueError.  B = isqrt(n),
    cut back so that B n_lam stays within WIDTH: a wider batch is bound by
    arithmetic, which blocking does not reduce.  B = 1 is the sequential
    sweep.
    """
    corners = k2 - np.outer([lams.min(), lams.max()], [rho.min(), rho.max()])
    angle = h * math.sqrt(float(np.max(np.abs(corners))))
    if angle > 1.0:
        raise ValueError(f"RK4 step angle {angle:.3g} exceeds 1: the mesh "
                         "does not resolve the largest lambda of the batch")
    n = (rho.size - 1) // 2
    nl = lams.size
    B = max(1, min(math.isqrt(n), WIDTH // nl))
    L = -(-n // B)
    # R[j, b] = rho at node j of block b; from step `full` on, the last
    # block's steps are padding
    padded = np.concatenate([rho, np.full(2 * (B * L - n), rho[-1])])
    R = padded[2 * L * np.arange(B) + np.arange(2 * L + 1)[:, None]]
    full = n - (B - 1) * L
    h_tail = np.full((B, 1), h)
    h_tail[-1] = 0.0

    def g(j):  # g at node j of every block, shape (B, nl)
        return k2 - lams * R[j, :, None]

    # both fundamental solutions of every block, a (2, B, nl) state
    H = np.zeros((2, B, nl))
    V = np.zeros((2, B, nl))
    H[0] = 1.0
    V[1] = 1.0
    negative = positive = np.zeros((B, nl), dtype=bool)
    z, zbar = np.zeros((2, B, nl), dtype=int)
    g1 = g(0)
    for i in range(L):
        g0, gm, g1 = g1, g(2 * i + 1), g(2 * i + 2)
        _rk4_step(H, V, g0, gm, g1, h if i < full else h_tail)
        now = H[1] < 0.0
        z += now != negative
        negative = now
        now = H[1] > 0.0
        zbar += now != positive
        positive = now

    # compose: M[r, c, b] is entry (r, c) of block b's matrix, and S[:, b]
    # is (s, s') at the end of block b
    M = np.stack([H, V])
    prod = M[:, :, 0]
    S = np.empty((2, B, nl))
    S[:, 0] = prod[:, 1]
    for b in range(1, B):
        prod = M[:, 0, b, None] * prod[0] + M[:, 1, b, None] * prod[1]
        S[:, b] = prod[:, 1]
    s0, ds0 = S[:, :-1]  # s and s' at the starts of blocks 1..
    s1 = S[0, 1:]        # s at their ends
    zb, zbar = z[1:], zbar[1:]
    separated = zb + (zb + ((s0 < 0.0) != (s1 < 0.0))) % 2
    on_boundary = np.where(ds0 > 0.0, zb, zbar)
    return prod, z[0] + np.where(s0 == 0.0, on_boundary, separated).sum(axis=0)


def _floquet_count(D: np.ndarray, zeros: np.ndarray, target) -> np.ndarray:
    """Eigenvalues below lambda of the one-period problem with multiplier
    e^{i phi}, target = 2 cos phi, from D = tr M_P(lambda) and the zero
    count n of s (oscillation theorem for Hill's equation): inside a band
    n + [D < target] for even n and n + [D > target] for odd n, inside a
    gap n if sign D = (-1)^n and n + 1 if not."""
    even = zeros % 2 == 0
    band = np.where(even, D < target, D > target)
    gap = np.where(even, D < 0.0, D > 0.0)
    return zeros + np.where(np.abs(D) < 2.0, band, gap)


# --------------------------------------------------------------------------
# counting
# --------------------------------------------------------------------------


@dataclass
class ModeCount:
    l: int
    count: int
    eigenvalues: list[float] = field(default_factory=list)
    at_threshold: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def count_below(problem: SLProblem) -> ModeCount:
    """Count eigenvalues strictly below 2, with multiplicity.

    rho has period P = b/q, so the mode's spectrum is the union over
    j < q of the one-period problems with multiplier e^{i phi_j},
    phi_j = (bc_phase + 2 pi j)/q, and its count below lambda is the sum of
    their oscillation counts (_floquet_count), minus the constants at
    l = 0.  The count is an integer from one RK4 sweep over [0, P]; closed
    gaps come out double by structure.  Evaluated at 2 -+ AT_THRESHOLD_TOL
    it splits the eigenvalues from the boundary eigenvalues at 2 (the map
    components, not counted).  Each eigenvalue is located to LAMBDA_XTOL by
    batched multisection on the count, MULTISECTION interior points per
    bracket and round.  The sweep
    reads rho from the problem's memo (_period_mesh), where monodromy on
    the same map has sampled it already.  Raises ValueError if rho does
    not have period P.
    """
    q = problem.q
    lo_edge, hi_edge = 2.0 - AT_THRESHOLD_TOL, 2.0 + AT_THRESHOLD_TOL
    mesh = _period_mesh(problem, hi_edge)
    targets = 2.0 * np.cos((problem.bc_phase + TWO_PI * np.arange(q)) / q)

    def counts(lams: np.ndarray) -> np.ndarray:  # shape (q, lams.size)
        M, zeros = _period_sweep(*mesh, lams)
        return _floquet_count(M[0, 0] + M[1, 1], zeros, targets[:, None])

    # eigenvalues <= 0: only the constants (l = 0, j = 0) at lambda = 0
    at_zero = np.zeros(q, dtype=int)
    at_zero[0] = problem.l == 0
    N = np.column_stack([at_zero, counts(np.array([lo_edge, hi_edge]))])
    # brackets (lo, hi] with the per-j counts at both ends
    lo, hi = np.array([0.0, lo_edge]), np.array([lo_edge, hi_edge])
    n_lo, n_hi = N[:, :-1], N[:, 1:]
    found = []
    t = np.linspace(0.0, 1.0, MULTISECTION + 2)
    while True:
        mult = (n_hi - n_lo).sum(axis=0)
        done = hi - lo <= LAMBDA_XTOL
        found.append(np.repeat(0.5 * (lo + hi)[done], mult[done]))
        keep = ~done & (mult > 0)
        if not keep.any():
            break
        lo, hi, n_lo, n_hi = lo[keep], hi[keep], n_lo[:, keep], n_hi[:, keep]
        grid = lo[:, None] + (hi - lo)[:, None] * t
        inner = counts(grid[:, 1:-1].ravel()).reshape(q, lo.size, MULTISECTION)
        C = np.concatenate([n_lo[:, :, None], inner, n_hi[:, :, None]], axis=2)
        # the count is monotone in lambda; integrator noise at a crossing
        # must neither add nor drop an eigenvalue of the bracket
        C = np.minimum(np.maximum.accumulate(C, axis=2), n_hi[:, :, None])
        b_idx, k_idx = np.nonzero((np.diff(C, axis=2) > 0).any(axis=0))
        lo, hi = grid[b_idx, k_idx], grid[b_idx, k_idx + 1]
        n_lo, n_hi = C[:, b_idx, k_idx], C[:, b_idx, k_idx + 1]
    eigs = np.sort(np.concatenate(found))
    out = ModeCount(l=problem.l, count=int(np.sum(eigs < lo_edge)))
    out.eigenvalues = [float(x) for x in eigs[:out.count]]
    out.at_threshold = [float(x) for x in eigs[out.count:]]
    return out


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    counts_below_2: list[ModeCount]
    n2: int
    bound_rhs: int
    equality: bool
    sufficient_condition_met: bool   # tau2 + tau3 - tau1 <= 4
    ratio_condition_met: bool        # p/q > 1/sqrt(3) or |r+a|/q < sqrt(3)/4
    tau_sum: float
    trace_certificates: dict
    warnings: list[str] = field(default_factory=list)


def n2_lower_bound(params: MapParams, point: ModuliPoint) -> int:
    """2p - 1 + delta_{2p,q} + 2(ceil(2|r+a| - 1) + delta_{r+a,0})."""
    rpa = params.r + point.a_exact
    delta_first = 1 if 2 * params.p == params.q else 0
    delta_zero = 1 if rpa == 0 else 0
    return (2 * params.p - 1 + delta_first
            + 2 * (math.ceil(2 * abs(rpa) - 1) + delta_zero))


def ratio_condition(params: MapParams, point: ModuliPoint) -> bool:
    """p/q > 1/sqrt(3) or |r+a|/q < sqrt(3)/4, decided in exact arithmetic;
    where it holds N(2) equals n2_lower_bound."""
    rpa = params.r + point.a_exact
    return 3 * params.p**2 > params.q**2 or 16 * rpa**2 < 3 * params.q**2


def assemble_N2(tau: TauTriple, params: MapParams,
                point: ModuliPoint) -> SpectrumReport:
    """Exact N(2) by mode-by-mode Floquet counting.

    The mode loop stops at l_max = ceil(sqrt(tau2+tau3-tau1)): beyond it the
    Rayleigh bound forces lambda_0(l) >= 2.  Emits certificates
    |trace M(2) - 2 cos(2 pi l a)| for l = 0, 1, where the map components
    are exact eigenfunctions with eigenvalue 2, from monodromy: the period
    sweep of the count on a finer mesh.  The certificates run first: the
    modes share rho's samples (ProfileSet.rho_samples), and the finer mesh
    nests the counting mesh of every mode l < sqrt(tau2+tau3-tau1), so rho
    is sampled and its period checked once for all of them; only mode
    l_max, on a finer mesh, samples its own.
    """
    profiles = build_profiles(tau, params, point)
    tau_sum = tau.tau2 + tau.tau3 - tau.tau1
    l_max = math.ceil(math.sqrt(tau_sum))
    certs = {}
    for l in (0, 1):
        problem = sl_problem(profiles, l)
        certs[l] = abs(np.trace(monodromy(problem, 2.0))
                       - problem.trace_target)
    counts = [count_below(sl_problem(profiles, l)) for l in range(l_max + 1)]
    warnings = [w for mc in counts for w in mc.warnings]
    n2 = 1 + counts[0].count + 2 * sum(mc.count for mc in counts[1:])
    bound = n2_lower_bound(params, point)
    return SpectrumReport(
        counts_below_2=counts,
        n2=n2,
        bound_rhs=bound,
        equality=(n2 == bound),
        sufficient_condition_met=(tau_sum <= 4.0),
        ratio_condition_met=ratio_condition(params, point),
        tau_sum=tau_sum,
        trace_certificates=certs,
        warnings=warnings,
    )


# --------------------------------------------------------------------------
# a certified instance with strict inequality N(2) > bound
# --------------------------------------------------------------------------


def _T_fn(m: float, n0: float, n1: float) -> float:
    """tau1 + tau3 - tau2 expressed in (m, n0, n1)."""
    return n1 / (n1 - n0) * (1.0 - n0 / m + n0)


def construct_strict_instance(seed=(Fraction(1, 6), -6.0, Fraction(9, 10)),
                              max_denominator: int = 60):
    """Parameters (a, b, p, q, r) whose Weyl count exceeds the lower bound.

    Recipe: starting from the seed (m, n0~, n1) with T = tau1+tau3-tau2 > 4,
    snap the theta-branch value Phi(n0|m)/pi to a nearby rational p0/q0,
    re-solve n0, scale q = k q0 until b = (q/pi) sqrt((1/n1-1/n0) m) K(m)
    exceeds max(1, 1/sqrt(T0-4)), and read (r, a) off the alpha-branch value.
    Then lambda_0(2) < 2 by the plane-wave test function, so the l = 2 mode
    contributes and N(2) is strictly above the bound.

    Returns (point, params, certificate) where the certificate carries the
    seed check, the solved instance data and the Floquet count of mode 2.
    """
    m = float(seed[0])
    n0_seed = float(seed[1])
    n1 = float(seed[2])
    if not _T_fn(m, n0_seed, n1) > 4.0:
        raise ValueError("seed does not satisfy T > 4")

    x = phi_fn(n0_seed, m) / math.pi
    frac = None
    for den in range(3, max_denominator + 1):
        cand = Fraction(x).limit_denominator(den)
        if cand <= Fraction(1, 2):
            continue
        n0 = solve_n(math.pi * float(cand), "theta", m)
        if _T_fn(m, n0, n1) > 4.0:
            frac = cand
            break
    if frac is None:
        raise RuntimeError(
            f"no rational theta target with denominator <= {max_denominator} "
            "keeps T > 4 near the seed")
    p0, q0 = frac.numerator, frac.denominator
    n0 = solve_n(math.pi * p0 / q0, "theta", m)
    T0 = _T_fn(m, n0, n1)

    from eqtorus.elliptic import complete_K

    b_unit = (1.0 / math.pi) * math.sqrt((1.0 / n1 - 1.0 / n0) * m) * complete_K(m)
    b_floor = max(1.0, 1.0 / math.sqrt(T0 - 4.0))
    k = 1
    while k * q0 * b_unit <= b_floor:
        k += 1
    p, q = k * p0, k * q0
    b = q * b_unit

    eta = phi_fn(n1, m) / math.pi
    frac_part = eta * q - math.floor(eta * q)
    if frac_part <= 0.5:
        r, a = math.floor(eta * q), frac_part
    else:
        r, a = math.floor(-eta * q), (-eta * q) - math.floor(-eta * q)

    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    tau = solve_tau(point, params)
    profiles = build_profiles(tau, params, point)
    mode2 = count_below(sl_problem(profiles, 2))
    certificate = {
        "seed_T": _T_fn(m, n0_seed, n1),
        "T0": T0,
        "m": m,
        "n0": n0,
        "n1": n1,
        "p0_q0": (p0, q0),
        "k": k,
        "b_floor": b_floor,
        "plane_wave_bound": 8.0 * (a * a / (b * b) + 1.0) / T0,
        "lambda0_2": mode2.eigenvalues[0] if mode2.eigenvalues else None,
        "mode2_count": mode2.count,
        "tau": tau,
    }
    return point, params, certificate
