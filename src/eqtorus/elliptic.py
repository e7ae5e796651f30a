"""Elliptic integrals and Jacobi elliptic functions on the parameter ranges
the torus constructions need.

Everything is routed through Carlson symmetric forms (R_F, R_D, R_J as
provided by scipy.special).  The complete third-kind integral stays
accurate for characteristics approaching the Cauchy singularity n -> 1, and
both third-kind integrals, through the addition theorem, for strongly
negative n.  Conventions:

* ``m`` is the *parameter* (modulus squared), ``0 <= m <= 1``,
  ``K(m) = RF(0, 1-m, 1)``.
* ``n`` is the characteristic of the third-kind integral,
  ``Pi(n | m) = int_0^{pi/2} dt / ((1 - n sin^2 t) sqrt(1 - m sin^2 t))``,
  defined here for ``n < 1``.
* The amplitude ``am(u | m)`` is unwrapped: continuous in ``u`` with
  ``am(u + 2K) = am(u) + pi``, never reduced mod 2*pi.

All functions are pure, accept scalars or numpy arrays in the evaluation
argument, and hold no global state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipj, elliprc, elliprd, elliprf, elliprj

__all__ = [
    "complete_K",
    "complete_E",
    "complete_Pi",
    "incomplete_Pi",
    "jacobi_sn_cn_dn_am",
    "jacobi_am",
]


def _check_m(m: float, *, allow_one: bool) -> float:
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"parameter m={m!r} outside [0, 1]")
    if m == 1.0 and not allow_one:
        raise ValueError("parameter m=1 is a singular endpoint here")
    return m


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m), 0 <= m < 1.

    Diverges like -log(1-m)/2 as m -> 1, so m >= 1 is rejected.
    """
    m = _check_m(m, allow_one=False)
    return float(elliprf(0.0, 1.0 - m, 1.0))


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), 0 <= m <= 1."""
    m = _check_m(m, allow_one=True)
    if m == 1.0:
        return 1.0
    y = 1.0 - m
    return float(elliprf(0.0, y, 1.0) - (m / 3.0) * elliprd(0.0, y, 1.0))


def _check_n(n: float) -> float:
    n = float(n)
    if n >= 1.0:
        raise ValueError(f"characteristic n={n!r} >= 1 hits the Cauchy singularity")
    return n


def complete_Pi(n: float, m: float) -> float:
    """Complete elliptic integral of the third kind Pi(n | m).

    Valid for every n < 1 (both the negative branch and m < n < 1);
    Pi(0 | m) = K(m).  Computed as K(m) + (n/3) RJ(0, 1-m, 1, 1-n) for n > 0;
    for n < 0 that cancels as n -> -inf, and the addition theorem (DLMF
    19.7.9 at phi = pi/2) gives, with nu = m/n, the sum of non-negative terms
    (pi/2) sqrt(n/((1-n)(n-m))) - (nu/3) RJ(0, 1-m, 1, 1-nu).
    """
    n = _check_n(n)
    m = _check_m(m, allow_one=False)
    if n == 0.0:
        return complete_K(m)
    y = 1.0 - m
    if n > 0.0:
        return float(elliprf(0.0, y, 1.0)
                     + (n / 3.0) * elliprj(0.0, y, 1.0, 1.0 - n))
    nu = m / n
    return float(0.5 * math.pi * math.sqrt(n / ((1.0 - n) * (n - m)))
                 - (nu / 3.0) * elliprj(0.0, y, 1.0, 1.0 - nu))


def incomplete_Pi(n: float, amplitude, m: float):
    """Incomplete third-kind integral Pi(n; psi | m) for any real amplitude.

    The amplitude is extended quasi-periodically,
    ``Pi(n; psi + pi | m) = Pi(n; psi | m) + 2 Pi(n | m)``,
    which makes the function odd and globally continuous; at psi = pi/2 it
    reduces to the complete integral.  On the principal branch, with
    s = sin psi, y = 1 - m s^2 and p = 1 - n s^2, it is
    s RF(cos^2 psi, y, 1) + (n/3) s^3 RJ(cos^2 psi, y, 1, p); for n < -sqrt(m)
    that cancels, and the addition theorem (DLMF 19.7.9) gives, with
    nu = m/n and q = 1 - nu s^2, the sum of same-signed terms
    s RC(cos^2 psi y, p q) - (nu/3) s^3 RJ(cos^2 psi, y, 1, q).
    """
    n = _check_n(n)
    m = _check_m(m, allow_one=False)
    psi = np.asarray(amplitude, dtype=float)
    # reduce to the principal branch psi0 in [-pi/2, pi/2]
    k = np.round(psi / np.pi)
    psi0 = psi - k * np.pi
    s = np.sin(psi0)
    c2 = np.cos(psi0) ** 2
    y = 1.0 - m * s * s
    p = 1.0 - n * s * s
    if n < -math.sqrt(m):  # |nu| < |n|
        nu = m / n
        q = 1.0 - nu * s * s
        base = (s * elliprc(c2 * y, p * q)
                - (nu / 3.0) * s**3 * elliprj(c2, y, 1.0, q))
    else:
        base = s * elliprf(c2, y, 1.0)
        if n != 0.0:
            base = base + (n / 3.0) * s**3 * elliprj(c2, y, 1.0, p)
    out = base + 2.0 * k * complete_Pi(n, m)
    if np.ndim(amplitude) == 0:
        return float(out)
    return out


def jacobi_sn_cn_dn_am(u, m: float):
    """Jacobi elliptic sn, cn, dn and the unwrapped amplitude am(u | m).

    Accepts any real u (scalar or array) and 0 <= m <= 1.  The argument is
    reduced by whole half-periods 2K(m); the bookkeeping integer restores
    sn/cn signs and accumulates pi per half-period into am, so the returned
    amplitude is the continuous branch with am(0) = 0.
    """
    m = _check_m(m, allow_one=True)
    u_arr = np.asarray(u, dtype=float)
    if m == 0.0:
        sn, cn, dn, am = np.sin(u_arr), np.cos(u_arr), np.ones_like(u_arr), u_arr
    elif m == 1.0:
        # degenerate hyperbolic case; am = gd(u) never wraps (K = inf)
        sn = np.tanh(u_arr)
        cn = 1.0 / np.cosh(u_arr)
        dn = cn
        am = np.arctan(np.sinh(u_arr))
    else:
        K = complete_K(m)
        nhalf = np.round(u_arr / (2.0 * K))
        ur = u_arr - 2.0 * K * nhalf
        sn_r, cn_r, dn_r, _ = ellipj(ur, m)
        sign = np.where(nhalf % 2 == 0, 1.0, -1.0)
        sn = sign * sn_r
        cn = sign * cn_r
        dn = dn_r
        # cn_r >= 0 on the reduced interval, so arctan2 lands in [-pi/2, pi/2]
        am = nhalf * np.pi + np.arctan2(sn_r, cn_r)
    if np.ndim(u) == 0:
        return float(sn), float(cn), float(dn), float(am)
    return sn, cn, dn, am


def jacobi_am(u, m: float):
    """Unwrapped Jacobi amplitude; see jacobi_sn_cn_dn_am."""
    return jacobi_sn_cn_dn_am(u, m)[3]
