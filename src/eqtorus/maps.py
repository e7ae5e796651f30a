"""Profiles and evaluators for the equivariant harmonic maps into S^3.

A map is (cos phi(y) e^{i theta(y)}, sin phi(y) e^{i(2 pi x + alpha(y))}) on
the plane, descending to the torus R^2 / (Z(1,0) + Z(a,b)).  With sn, cn, dn
at (w y | m), w = 2 pi sqrt(tau3 - tau1), and D = tau2 - tau1,

    cos^2 phi = tau1 + D sn^2,   sin^2 phi = (1 - tau2) + D cn^2,
    rho(y)    = 2 pi^2 (tau1 + tau2 + tau3 - 2 cos^2 phi(y)).

ProfileSet.latitude alone takes the roots (signed in the limit cases) and
their first two y-derivatives, in closed form.  The angular profiles
integrate the first integrals theta' = c / cos^2 phi, alpha' = d / sin^2 phi
into incomplete third-kind integrals with quasi-periodically extended
amplitude.  They also make z1'' = ((cos phi)'' - theta'^2 cos phi) e^{i theta}
and z2'' = ((sin phi)'' - alpha'^2 sin phi) e^{i psi}, so harmonicity_residual
checks every map with closed-form second derivatives.

rho has the classical cosine series of sn^2 in the nome (DLMF 22.11.13),
which ProfileSet.rho_series gives once per map for the spectral layer.

The constant-latitude ("circle") family lives on the boundary
(r+a)^2 + b^2 = p^2 and is exactly harmonic with constant energy density.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from eqtorus.elliptic import complete_K, incomplete_Pi, jacobi_sn_cn_dn_am
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    MapParams,
    ModuliPoint,
    Regime,
    TauTriple,
    _carlson,
    require_circle_boundary,
)

__all__ = [
    "ProfileSet",
    "CircleMap",
    "HopfConstants",
    "build_profiles",
    "harmonicity_residual",
    "hopf_constants",
    "hopf_grid_residual",
    "conformality_residual",
    "export_mesh",
]

TWO_PI = 2.0 * math.pi
# largest relative defect |w b/q - 2K| / (2K) of rho's period 2K/w
PERIOD_TOL = 1e-9


class ProfileSet:
    """Evaluable closed forms phi, theta, alpha, rho of one harmonic map.

    Immutable after construction, apart from the rho_series and rho_samples
    memos; all evaluators are vectorized in y and pure.  theta and alpha are
    globally smooth (unwrapped) and satisfy theta(y+b) = theta(y) + 2 pi p,
    alpha(y+b) = alpha(y) - 2 pi (r+a).
    """

    def __init__(self, tau: TauTriple, params: MapParams, point: ModuliPoint):
        if params.regime is Regime.CIRCLE_FAMILY:
            raise InfeasibleParametersError(
                "circle-family parameters: use CircleMap")
        self.tau = tau
        self.params = params
        self.point = point
        self.w = TWO_PI * math.sqrt(tau.tau3 - tau.tau1)
        self.rpa = params.r_plus_a(point)
        # rho's samples and Hill inverse for the spectral layer, which every
        # Fourier mode of this map shares (spectral.SLProblem.samples)
        self.rho_samples: dict = {}
        t1, t2, t3 = tau.taus
        self._dt = t2 - t1
        self._sigma = t1 + t2 + t3
        # prefactors of the incomplete third-kind integrals; zero in the
        # branches where the corresponding angle is constant
        if tau.c > 0.0:
            self._pref_theta = math.sqrt(t2 * t3 / (t1 * (t3 - t1)))
        else:
            self._pref_theta = 0.0
        if tau.d != 0.0:
            self._pref_alpha = -math.copysign(1.0, self.rpa) * math.sqrt(
                (1.0 - t2) * (t3 - 1.0) / ((1.0 - t1) * (t3 - t1)))
        else:
            self._pref_alpha = 0.0

    # -- scalar profiles -------------------------------------------------

    def _sn_cn_dn_am(self, y):
        return jacobi_sn_cn_dn_am(self.w * np.asarray(y, dtype=float), self.tau.m)

    def cos2_phi(self, y):
        sn = self._sn_cn_dn_am(y)[0]
        return self.tau.tau1 + self._dt * sn * sn

    def latitude(self, y):
        """((cos phi, sin phi), their y-derivatives, their second ones), the
        one place that decides these roots and their signs (DLMF 22.13): the
        signed sqrt(D) sn or sqrt(D) cn where the regime makes tau1 or 1 - tau2
        exactly zero, elsewhere the positive roots of the module's squares."""
        return self._latitude(*self._sn_cn_dn_am(y)[:3])

    def _latitude(self, sn, cn, dn):
        """latitude(y) from sn, cn, dn at (w y | m)."""
        w, m, dt, reg = self.w, self.tau.m, self._dt, self.params.regime

        def root(const, signed, f, df, d2f):
            # sqrt(const + D f^2) and its derivatives, from (r^2)' = 2 D f f'
            if signed:
                return tuple(math.sqrt(dt) * v for v in (f, df, d2f))
            r = np.sqrt(const + dt * f * f)
            dr = dt * f * df / r
            return r, dr, (dt * (df * df + f * d2f) - dr * dr) / r

        cos = root(self.tau.tau1,
                   reg in (Regime.FIRST_LIMIT, Regime.HYBRID_LIMIT),
                   sn, w * cn * dn, -w * w * sn * (dn * dn + m * cn * cn))
        sin = root(1.0 - self.tau.tau2,
                   reg in (Regime.SECOND_LIMIT, Regime.HYBRID_LIMIT),
                   cn, -w * sn * dn, -w * w * cn * (dn * dn - m * sn * sn))
        return tuple(zip(cos, sin))

    def cos_sin_phi(self, y):
        """(cos phi, sin phi) with the branch-correct signs."""
        return self.latitude(y)[0]

    def phi(self, y):
        if self.params.regime is Regime.HYBRID_LIMIT:
            # unwrapped: phi = pi/2 - am(w y | m), monotone in y
            return math.pi / 2 - self._sn_cn_dn_am(y)[3]
        cphi, sphi = self.cos_sin_phi(y)
        return np.arctan2(sphi, cphi)

    def theta(self, y):
        return self._angle(self._pref_theta, self.tau.n0, y)

    def alpha(self, y):
        return self._angle(self._pref_alpha, self.tau.n1, y)

    def _angle(self, pref, n, y, am=None):
        """pref Pi(n; am | m) at am = am(w y | m), computed unless given;
        zeros, with no Jacobi call, where pref is 0."""
        if pref == 0.0:
            return np.zeros_like(np.asarray(y, dtype=float))
        if am is None:
            am = self._sn_cn_dn_am(y)[3]
        return pref * incomplete_Pi(n, am, self.tau.m)

    def rho(self, y):
        return 2.0 * math.pi**2 * (self._sigma - 2.0 * self.cos2_phi(y))

    @functools.cached_property
    def rho_series(self) -> np.ndarray:
        """(c_0, c_1, ...) of rho = c_0 + 2 sum c_k cos(2 pi k y/P), P = 2K/w,
        from the series of sn^2 in the nome e^{-x}, x = pi K'/K (DLMF
        22.11.13): c_0 = 2 pi^2 (tau1 + tau2 - tau3 + 2 (tau3 - tau1) E/K),
        c_k = 2 pi^4 (tau3 - tau1) k / (K^2 sinh(k x)), with 1 - m = (gap2 +
        gap3)/(tau3 - tau1) from the carried gaps.  The c_k fall; the series
        stops before the first below 2^-53 c_0, so what is made from it is
        exact to rounding.  Raises ValueError unless P = b/q to PERIOD_TOL."""
        t1, t2, t3 = self.tau.taus
        m1 = (self.tau.gap2 + self.tau.gap3) / (t3 - t1)
        K, Ra, _ = _carlson(m1)
        q = self.params.q
        defect = abs(self.w * self.point.b / q - 2.0 * K) / (2.0 * K)
        if not defect <= PERIOD_TOL:
            raise ValueError(
                f"rho is not periodic with period b/q = {self.point.b / q:.9g} "
                f"(q = {q}): relative defect {defect:.3g}; a wrong q or a tau "
                "solve that does not close the profile")
        E = K - (1.0 - m1) * Ra / 3.0
        coef = [2.0 * math.pi**2 * (t1 + t2 - t3 + 2.0 * (t3 - t1) * E / K)]
        x = math.pi * complete_K(m1) / K
        scale = 2.0 * math.pi**4 * (t3 - t1) / (K * K)
        k = 1
        while (c := scale * k / math.sinh(k * x)) >= 2.0**-53 * coef[0]:
            coef.append(c)
            k += 1
        return np.array(coef)

    # -- derivatives (closed forms) --------------------------------------

    def dphi(self, y):
        (cphi, sphi), (dcphi, dsphi), _ = self.latitude(y)
        return cphi * dsphi - sphi * dcphi

    def dtheta(self, y):
        return self._rates(*self.cos_sin_phi(y))[0]

    def dalpha(self, y):
        return self._rates(*self.cos_sin_phi(y))[1]

    def _rates(self, cphi, sphi):
        """(theta', alpha') = (c / cos^2 phi, d / sin^2 phi), 0 if c or d is."""
        zero = np.zeros_like(cphi)
        return (zero if self.tau.c == 0.0 else self.tau.c / cphi ** 2,
                zero if self.tau.d == 0.0 else self.tau.d / sphi ** 2)

    # -- the map and its y-derivatives -----------------------------------

    def _latitude_and_phases(self, x, y):
        """latitude(y) and (e^{i theta}, e^{i psi}), psi = 2 pi x + alpha(y),
        from one evaluation of sn, cn, dn, am at (w y | m)."""
        sn, cn, dn, am = self._sn_cn_dn_am(y)
        psi = (TWO_PI * np.asarray(x, dtype=float)
               + self._angle(self._pref_alpha, self.tau.n1, y, am))
        theta = self._angle(self._pref_theta, self.tau.n0, y, am)
        return (self._latitude(sn, cn, dn),
                (np.exp(1j * theta), np.exp(1j * psi)))

    def jet(self, x, y):
        """((z1, z2), (z1_y, z2_y)): the map and its y-derivative at (x, y)."""
        lat, (e1, e2) = self._latitude_and_phases(x, y)
        (cphi, sphi), (dcphi, dsphi), _ = lat
        dth, dal = self._rates(cphi, sphi)
        return ((cphi * e1, sphi * e2),
                ((dcphi + 1j * dth * cphi) * e1, (dsphi + 1j * dal * sphi) * e2))

    def map_values(self, x, y):
        """(z1, z2) complex arrays at flat coordinates (x, y)."""
        return self.jet(x, y)[0]

    def dy_values(self, x, y):
        return self.jet(x, y)[1]

    def d2y_values(self, x, y):
        lat, (e1, e2) = self._latitude_and_phases(x, y)
        (cphi, sphi), _, (d2cphi, d2sphi) = lat
        dth, dal = self._rates(cphi, sphi)
        return ((d2cphi - dth ** 2 * cphi) * e1, (d2sphi - dal ** 2 * sphi) * e2)

    def dx_values(self, x, y):
        z2 = self.map_values(x, y)[1]
        return np.zeros_like(z2), TWO_PI * 1j * z2


def build_profiles(tau: TauTriple, params: MapParams,
                   point: ModuliPoint) -> ProfileSet:
    """Profile set of u^{p,q,r}_{a,b}; branch selected by params.regime."""
    return ProfileSet(tau, params, point)


class CircleMap:
    """Constant-latitude harmonic map on the boundary (r+a)^2 + b^2 = p^2.

    (cos phi0 e^{2 pi i p y / b}, sin phi0 e^{2 pi i (b x - (r+a) y)/b});
    exactly harmonic with constant energy density 2 pi^2 p^2 / b^2.
    """

    def __init__(self, point: ModuliPoint, p: int, r: int, phi0: float):
        require_circle_boundary(point, p, r, "; the constant-latitude family "
                                "lives only on that boundary")
        if not 0.0 <= phi0 <= math.pi / 2:
            raise ValueError(f"latitude phi0={phi0} outside [0, pi/2]")
        self.point = point
        self.p = int(p)
        self.r = int(r)
        self.phi0 = float(phi0)
        self.rpa = r + point.a
        b = point.b
        A, B = math.cos(phi0), math.sin(phi0)
        self.energy_density = (2.0 * math.pi**2 / b**2) * (
            p * p * A * A + (b * b + self.rpa**2) * B * B)
        self._freq1 = TWO_PI * p / b
        self._freq2 = TWO_PI * self.rpa / b

    def map_values(self, x, y):
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float))
        z1 = math.cos(self.phi0) * np.exp(1j * self._freq1 * yb)
        z2 = math.sin(self.phi0) * np.exp(1j * (TWO_PI * xb - self._freq2 * yb))
        return z1, z2

    def rho(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.energy_density)

    def d2y_values(self, x, y):
        z1, z2 = self.map_values(x, y)
        return -self._freq1**2 * z1, -self._freq2**2 * z2

    def dy_values(self, x, y):
        z1, z2 = self.map_values(x, y)
        return 1j * self._freq1 * z1, -1j * self._freq2 * z2

    def dx_values(self, x, y):
        z2 = self.map_values(x, y)[1]
        return np.zeros_like(z2), TWO_PI * 1j * z2


# --------------------------------------------------------------------------
# numerical certification
# --------------------------------------------------------------------------


def _stack4(z1, z2):
    """Real 4-vector view (Re z1, Im z1, Re z2, Im z2) stacked on axis 0."""
    return np.stack([z1.real, z1.imag, z2.real, z2.imag])


def harmonicity_residual(map_like, n: int = 1000) -> float:
    """Max norm of the tension field against the sphere constraint.

    Evaluates |d2u/dx2 + d2u/dy2 + 2 e(u) u| on an n-point y-grid with both
    second derivatives in closed form: -4 pi^2 z2 in x and the map's
    d2y_values in y.  Equivariance makes the residual independent of x.
    """
    b = map_like.point.b
    y = np.linspace(0.0, b, n, endpoint=False) + 0.31 * b / n
    z1, z2 = map_like.map_values(0.0, y)
    d2y1, d2y2 = map_like.d2y_values(0.0, y)
    rho = map_like.rho(y)
    res1 = d2y1 + 2.0 * rho * z1
    res2 = d2y2 - 4.0 * math.pi**2 * z2 + 2.0 * rho * z2
    return float(np.max(np.sqrt(np.abs(res1) ** 2 + np.abs(res2) ** 2)))


@dataclass(frozen=True)
class HopfConstants:
    """Constant components of <d_z u, d_z u>: h_re = pi^2 - A/4, as
    pi^2 (gap2 - gap3 - tau1), which does not cancel near tau1 + tau2 +
    tau3 = 2, and h_im = -pi d."""

    h_re: float
    h_im: float


def hopf_constants(tau: TauTriple) -> HopfConstants:
    return HopfConstants(h_re=math.pi**2 * (tau.gap2 - tau.gap3 - tau.tau1),
                         h_im=-math.pi * tau.d + 0.0)


def _hopf_samples(map_like, n: int):
    """(|u_x|^2 - |u_y|^2, -2 <u_x, u_y>) at x = 0.29 on an n-point y-grid:
    4 H_re and 4 H_im of the Hopf differential's coefficient <d_z u, d_z u>,
    from first derivatives."""
    b = map_like.point.b
    y = np.linspace(0.0, b, n, endpoint=False) + 0.137 * b / n
    dx = _stack4(*map_like.dx_values(0.29, y))
    dy = _stack4(*map_like.dy_values(0.29, y))
    return (np.sum(dx * dx, axis=0) - np.sum(dy * dy, axis=0),
            -2.0 * np.sum(dx * dy, axis=0))


def hopf_grid_residual(map_like):
    """Sampled (4 H_re, 4 H_im) from first derivatives on a 64-point y-grid.

    Returns (mean_re, mean_im, max_std) where max_std bounds the pointwise
    deviation of either component from its mean; a harmonic torus must make
    this machine-small since the Hopf differential is holomorphic.
    """
    re4, im4 = _hopf_samples(map_like, 64)
    spread = max(float(np.max(re4) - np.min(re4)),
                 float(np.max(im4) - np.min(im4)))
    return float(np.mean(re4)) / 4.0, float(np.mean(im4)) / 4.0, spread / 4.0


def conformality_residual(map_like) -> tuple[float, float]:
    """(max | |du/dx|^2 - |du/dy|^2 |, max |<du/dx, du/dy>|) over a 512-point
    y-grid.

    Both vanish (to 1e-8) exactly when the map is minimal, i.e. when
    A = 4 pi^2 and d = 0.
    """
    re4, im4 = _hopf_samples(map_like, 512)
    return float(np.max(np.abs(re4))), float(np.max(np.abs(im4))) / 2.0


def export_mesh(map_like, nx: int, ny: int, fh) -> int:
    """Write an nx-by-ny vertex grid as JSON lines; returns the record count.

    One record per vertex: x, y, re_z1, im_z1, re_z2, im_z2, each as its
    double's shortest round-trip repr.  ``fh`` is an open text file handle.
    """
    b = map_like.point.b
    count = 0
    for i in range(nx):
        x = i / nx
        ys = np.linspace(0.0, b, ny, endpoint=False)
        z1, z2 = map_like.map_values(x, ys)
        z1 = np.broadcast_to(z1, ys.shape)
        z2 = np.broadcast_to(z2, ys.shape)
        for j in range(ny):
            rec = {
                "x": x,
                "y": float(ys[j]),
                "re_z1": float(z1[j].real),
                "im_z1": float(z1[j].imag),
                "re_z2": float(z2[j].real),
                "im_z2": float(z2[j].imag),
            }
            fh.write(json.dumps(rec) + "\n")
            count += 1
    return count
