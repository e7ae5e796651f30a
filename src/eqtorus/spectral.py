"""Floquet eigenvalue counting for the weighted Hill problems

    -h''(y) + 4 pi^2 l^2 h(y) = lambda rho(y) h(y),
    h(y + b) = e^{-2 pi i l a} h(y),

one problem per Fourier mode l of the torus Laplacian for the conformal
metric rho(y) g_{a,b}.  rho has period P = b/q, so the spectrum of mode l
is the union over j < q of the one-period problems with multiplier
e^{i phi_j}, phi_j = (2 pi l a + 2 pi j)/q.  count_below solves all of them
at once by Rayleigh-Ritz (Galerkin) in the Fourier basis of the
quasi-periodic functions, the Hill matrix (Magnus & Winkler, *Hill's
Equation*, 1966): rho enters only through the real symmetric Toeplitz matrix
of its cosine coefficients, which every phase and every mode of a map share.
Galerkin values bound the eigenvalues from above (min-max), so a truncation
can only undercount; the truncation is read off the decay of rho's
coefficients and the kinetic terms that an eigenvalue below 2 can reach.

monodromy gives the fundamental matrix over [0, b] as M_P^q, from one
fixed-step sweep over [0, P] by the sixth-order Magnus integrator on three
Gauss nodes (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes,
Casas & Ros, BIT 40, 2000), exact for constant coefficients; it makes
every step matrix at once and multiplies them by a pairwise product tree
(_period_sweep), and carries the certificates that the map components have
eigenvalue 2.  A problem takes rho as the coefficients c_k of its cosine
series rho = c_0 + 2 sum c_k cos(2 pi k y/P); a map's come in closed form
from ProfileSet.rho_series, which also checks the period, once per map.
Each certificate mesh takes rho at its Gauss nodes from them by one
phase-shifted irfft, shared by the modes on that mesh, so assemble_N2
evaluates rho itself at no point.

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
# the Hill basis reaches every Fourier coefficient of rho at or above this
# fraction of its mean.  A Galerkin value errs by about the square of what
# the basis leaves out
FOURIER_CUT = 1e-9
# a lambda = 2 trace certificate above this is flagged in its mode's
# warnings, as "l = <l>: trace residual <value>"
CERTIFICATE_TOL = 1e-7
# Gauss-Legendre nodes of one Magnus step, in units of the step
GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


@dataclass(frozen=True)
class SLProblem:
    """One Fourier-mode Hill problem with its Floquet boundary phase."""

    l: int
    # c_0, c_1, ... of rho = c_0 + 2 sum c_k cos(2 pi k y / P) > 0, with
    # P = b / q; the terms past the array are taken as 0
    coef: np.ndarray = field(repr=False, compare=False)
    b: float
    bc_phase: float           # 2 pi l a mod 2 pi
    q: int = 1                # number of rho periods in [0, b]
    # {(P, n): rho} from _samples and {(P, "B^-1"): B^-1} from
    # _hill_inverse; one memo serves all modes of a map, a hand-built
    # problem's is empty
    samples: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def rho_max(self) -> float:
        """c_0 + 2 sum |c_k|, a bound on rho; a map's c_k are all positive,
        so there it is rho(0) = 2 pi^2 (tau2 + tau3 - tau1), the maximum."""
        return float(self.coef[0] + 2.0 * np.abs(self.coef[1:]).sum())

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
    return SLProblem(l=int(l), coef=profiles.rho_series, b=point.b,
                     bc_phase=phase, q=profiles.params.q,
                     samples=profiles.rho_samples)


# --------------------------------------------------------------------------
# monodromy
# --------------------------------------------------------------------------


def _samples(problem: SLProblem, n: int) -> np.ndarray:
    """rho at the Gauss nodes (j + GAUSS[i]) P/n of n steps over one period
    P, as a (3, n) array, by one zero-padded irfft of its coefficients, each
    row's shifted by the phase of its node (numpy's irfft: scipy's plan
    cache costs 1.5 MB of peak RSS).  n is above twice the last k of the
    series (_mesh), so every term is an ordinary cosine.  Memoized per
    (P, n), so modes on the same mesh share it."""
    key = (problem.period, n)
    if key not in problem.samples:
        coef = problem.coef * n
        shift = np.exp(np.multiply.outer(GAUSS, np.arange(coef.size))
                       * (2j * math.pi / n))
        problem.samples[key] = np.fft.irfft(coef * shift, n)
    return problem.samples[key]


def _mesh(problem: SLProblem, lam: float) -> int:
    """Steps of monodromy's sweep over one period P at lam, by a sixth-order
    rule: n steps of angle theta/n, theta = sqrt(max |k2 - lam rho|) P (at
    least P), err by about n (theta/n)^7 = theta^7/n^6, held at 2e-9.
    Measured, the l = 1 trace at (a, b) = (0, 2), the least smooth rho of
    the criterion-4 set, errs by 3e-10 on its 800 steps, and the error
    falls as n^-6 until rounding, ~5e-11, takes over.  n is raised above
    twice the last k of rho's series, so that _samples keeps every term,
    and rounded up to a 5-smooth count, which keeps its irfft fast."""
    k2 = 4.0 * math.pi**2 * problem.l**2
    theta = math.sqrt(max(abs(lam) * problem.rho_max, k2, 1.0)) * problem.period
    n = int((theta**7 / 2e-9) ** (1.0 / 6.0)) + 1
    return _smooth5(max(n, 2 * problem.coef.size - 1))


def _smooth5(n: int) -> int:
    """The least 2^i 3^j 5^k >= n, for n >= 1: the value of scipy.fft's
    next_fast_len(n, real=True), without importing scipy.fft."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 2^i >= n: 2^i >= ceil(n / p35)
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def monodromy(problem: SLProblem, lam: float):
    """Fundamental solution matrix over [0, b], as M_P(lam)^q.

    Columns are the solutions with (h, h')(0) = (1, 0) and (0, 1); the
    Wronskian keeps det M = 1, which the caller may use as a health check.
    M_P comes from the period sweep on the n steps of _mesh, with rho at
    their Gauss nodes from its cosine coefficients.
    """
    k2 = 4.0 * math.pi**2 * problem.l**2
    n = _mesh(problem, lam)
    M_P = _period_sweep(_samples(problem, n), problem.period / n, k2, lam)
    return np.linalg.matrix_power(M_P, problem.q)


def _magnus_step(rho: np.ndarray, h: float, k2: float,
                 lam: float) -> np.ndarray:
    """Every step's matrix, a (2, 2, n) array whose [:, :, j] is step j:
    the sixth-order Magnus step exp(Omega) for
    (h, h')' = A (h, h'), A = [[0, 1], [g, 0]], g = k2 - lambda rho, from
    rho at the step's three Gauss nodes (a (3, n) rho).

    With alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1) and alpha3 =
    (10 h/3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2] and C2 = -[alpha1,
    2 alpha3 + C1]/60, Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3
    + C1, alpha2 + C2]/240 (Blanes, Casas & Ros, BIT 40, 2000).  Every
    commutator of sl(2) is closed form; here x, y, z are h times the lower
    entries of alpha1, alpha2, alpha3, and Omega = [[d, h u], [w/h, -d]].
    Omega^2 = s2 I, so exp(Omega) = cosh(s) I + sinh(s)/s Omega, with cos
    and sin where s2 < 0; constant coefficients make it exact.
    """
    g1, g2, g3 = k2 - lam * rho
    hh = h * h
    x = hh * g2
    y = (hh * math.sqrt(15.0) / 3.0) * (g3 - g1)
    z = (hh * 10.0 / 3.0) * (g3 - 2.0 * g2 + g1)
    yy = y * y
    d = y * (x / 180.0 + z / 7200.0 - 1.0 / 12.0)
    u = 1.0 + yy / 3600.0 - z / 180.0
    w = x + z / 12.0 - yy / 120.0 + x * z / 180.0 + (z * z + x * yy) / 3600.0
    s2 = d * d + u * w
    s = np.sqrt(np.abs(s2))
    grow = s2 > 0.0
    c = np.where(grow, np.cosh(s), np.cos(s))
    f = np.divide(np.where(grow, np.sinh(s), np.sin(s)), s,
                  out=np.ones_like(s), where=s > 0.0)
    fd = f * d
    return np.stack([c + fd, (f * u) * h, (f * w) / h, c - fd]).reshape(
        (2, 2) + s.shape)


def _period_sweep(rho: np.ndarray, h: float, k2: float,
                  lam: float) -> np.ndarray:
    """M_P(lam), the (2, 2) matrix of one period.

    Sixth-order Magnus steps of size h over one period P = n h, with rho
    at the three Gauss nodes of each step (a (3, n) rho).  A step costs
    numpy's per-call overhead, not its arithmetic, so all n step matrices
    are made at once, and M_P is their ordered product by a pairwise
    product tree.  A step angle h sqrt(max |k2 - lam rho|) above 1 raises
    ValueError: the mesh does not resolve lam.
    """
    angle = h * math.sqrt(max(abs(k2 - lam * rho.min()),
                              abs(k2 - lam * rho.max())))
    if angle > 1.0:
        raise ValueError(f"Magnus step angle {angle:.3g} exceeds 1: the mesh "
                         "does not resolve lambda")
    # each level puts every odd step onto the even one before it: entry
    # (i, k) of a product is sum_j odd[i, j] even[j, k], two broadcast terms
    M = _magnus_step(rho, h, k2, lam)
    while M.shape[2] > 1:
        odd, even = M[:, :, 1::2], M[:, :, :-1:2]
        pairs = odd[:, :1] * even[:1] + odd[:, 1:] * even[1:]
        if M.shape[2] % 2:  # an odd count carries its last step up
            pairs = np.concatenate([pairs, M[:, :, -1:]], axis=2)
        M = pairs
    return M[:, :, 0]


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


def _hill_inverse(problem: SLProblem) -> np.ndarray:
    """B^-1, B[i, j] = c_|n_i - n_j| the cosine coefficient of rho, |n| <= N;
    B is real symmetric and depends on neither mode nor phase, so it is
    inverted once per period and memoized under (P, "B^-1").

    N = R + K: R is the last coefficient of rho at or above FOURIER_CUT of
    its mean in size, K the last n whose kinetic term is at most 2 max rho,
    where every eigenvalue below 2 lives (a flat rho has R = 0)."""
    key = (problem.period, "B^-1")
    if key not in problem.samples:
        reach = np.flatnonzero(np.abs(problem.coef)
                               >= FOURIER_CUT * problem.coef[0])[-1]
        N = int(reach + math.sqrt(2.0 * problem.rho_max) * problem.period
                / TWO_PI) + 1
        coef = np.zeros(2 * N + 1)
        coef[:problem.coef.size] = problem.coef[:2 * N + 1]
        n = np.arange(2 * N + 1)
        problem.samples[key] = np.linalg.inv(coef[np.abs(n[:, None] - n)])
    return problem.samples[key]


def count_below(problem: SLProblem) -> ModeCount:
    """Count eigenvalues strictly below 2, with multiplicity.

    rho has period P = b/q, so the mode's spectrum is the union over
    j < q of the one-period problems with multiplier e^{i phi_j},
    phi_j = (bc_phase + 2 pi j)/q.  Phase j is solved by Rayleigh-Ritz in
    the basis e^{i(kappa_j + 2 pi n/P) y}, |n| <= N, kappa_j = -phi_j/P:
    the pencil diag((kappa_j + 2 pi n/P)^2 + 4 pi^2 l^2) x = lambda B x,
    where B is the real symmetric Toeplitz matrix of rho's cosine
    coefficients.
    One inverse of B serves every phase and every mode.  The constant
    (l = 0, phase 0, lambda = 0) is not counted.  Eigenvalues within
    AT_THRESHOLD_TOL of 2 are the boundary eigenvalues at 2 (the map
    components), listed apart and not counted.

    B^-1 and its reach N come from _hill_inverse, once per map.  B keeps
    every coefficient up to 2N, so a Galerkin value errs by about the square
    of what the basis leaves out, and only upward (min-max).
    """
    P, q = problem.period, problem.q
    B_inv = _hill_inverse(problem)
    N = B_inv.shape[0] // 2
    n = np.arange(-N, N + 1)
    # the pencil A_j x = lambda B x has the eigenvalues of
    # A_j^1/2 B^-1 A_j^1/2
    kappa = -(problem.bc_phase + TWO_PI * np.arange(q)) / (q * P)
    k = kappa[:, None] + TWO_PI * n / P
    root = np.sqrt(k * k + 4.0 * math.pi**2 * problem.l**2)
    C = root[:, :, None] * B_inv * root[:, None, :]
    eigs = np.sort(np.linalg.eigvalsh(C), axis=None)
    if problem.l == 0 and problem.bc_phase == 0.0:
        eigs = eigs[1:]  # the constant
    count = int(np.sum(eigs < 2.0 - AT_THRESHOLD_TOL))
    at = int(np.sum(eigs <= 2.0 + AT_THRESHOLD_TOL))
    return ModeCount(l=problem.l, count=count,
                     eigenvalues=[float(x) for x in eigs[:count]],
                     at_threshold=[float(x) for x in eigs[count:at]])


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
    are exact eigenfunctions with eigenvalue 2, from the Magnus monodromy;
    one above CERTIFICATE_TOL is flagged in the warnings of its mode and of
    the report.  The certificates and the counts share rho's cosine series
    (ProfileSet.rho_series), made and its period checked once for the whole
    op, and rho itself is evaluated at no point.
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
    for l, cert in certs.items():
        if cert > CERTIFICATE_TOL:
            counts[l].warnings.append(f"l = {l}: trace residual {cert:.2e}")
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


def construct_strict_instance(seed=(Fraction(1, 6), -6.0, Fraction(9, 10))):
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
    for den in range(3, 61):
        cand = Fraction(x).limit_denominator(den)
        if cand <= Fraction(1, 2):
            continue
        n0 = solve_n(math.pi * float(cand), "theta", m)
        if _T_fn(m, n0, n1) > 4.0:
            frac = cand
            break
    if frac is None:
        raise RuntimeError(
            "no rational theta target with denominator <= 60 keeps T > 4 "
            "near the seed")
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
