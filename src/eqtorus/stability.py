"""Second-variation diagnostics: Fourier blocks of the Jacobi operator on
the constant-latitude maps, their kernel at the distinguished latitude, the
conformal-direction second variation, and a discretized index/nullity count
for the generic (1,1,0) maps: each mode form is a Hermitian band, its
l-independent part built once per mesh (_mode_parts) and its l-terms added
per mode (_mode_matrix).  Its values below +_DELTA come from shift-invert
over a banded Cholesky factor, shifted to the tightest proven lower bound on
the spectrum; an unpivoted LDL^H of the band shifted by +_DELTA
(_band_inertia) counts them, Kahan's bound on their Ritz residual places
them against -_DELTA (an LDL^H at -_DELTA only where it cannot), and
Richardson-extrapolated, they certify the zero cluster to ZERO_TOL
(_mode_spectrum).  The frame (i u, e^{2 pi i x} j u,
i e^{2 pi i x} j u), from the map and its first derivatives alone, turns by
e^{2 pi i a} on the lattice (_mode_parts).

For the constant-latitude map at (r+a)^2 + b^2 = p^2 the Jacobi operator has
constant coefficients in the orthonormal frame

    nu1 = (i e^{2 pi i p y / b}, 0),
    nu2 = (0, i e^{-2 pi i (b x - (r+a) y)/b}),
    nu3 = (-B e^{2 pi i p y / b}, A e^{-2 pi i (b x - (r+a) y)/b}),

A = cos phi0, B = sin phi0, and splits into 3x3 blocks over the Fourier
modes e^{2 pi i (l b x + (k - l a) y)/b}.  At phi0 = arccos(sqrt(4p^2-q^2)/(2b))
the blocks (+-q, 0) become singular; their kernel fields are Jacobi fields
that no harmonic deformation integrates (integrability would force both
q = 2p and q = 2|r+a|, impossible on the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh, qr
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from eqtorus.maps import CircleMap, build_profiles
from eqtorus.tau_solver import (
    ModuliPoint,
    classify_params,
    require_circle_boundary,
    solve_tau,
)

__all__ = [
    "JacobiBlock",
    "jacobi_block",
    "jacobi_block_det_closed_form",
    "KernelPair",
    "special_phi0_kernel",
    "hersch_second_variation",
    "hersch_quadrature",
    "IndexNullity",
    "index_nullity_estimate",
]

_M1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _check_boundary(point: ModuliPoint, p: int, r: int) -> float:
    require_circle_boundary(point, p, r, ": Jacobi blocks are defined on the "
                            "constant-latitude boundary only")
    return r + point.a


@dataclass(frozen=True)
class JacobiBlock:
    """One Fourier block of the Jacobi operator (frame nu1, nu2, nu3)."""

    k: int
    l: int
    matrix: np.ndarray
    det: complex
    det_closed_form: float


def jacobi_block_det_closed_form(point: ModuliPoint, p: int, r: int,
                                 phi0: float, k: int, l: int) -> float:
    a, b = point.a, point.b
    A, B = math.cos(phi0), math.sin(phi0)
    rpa = r + a
    mu = l * l * b * b + (k - l * a) ** 2
    return mu * (mu * mu
                 - 4.0 * A * A * (l * b * b - (k - l * a) * rpa) ** 2
                 - 4.0 * B * B * p * p * (k - l * a) ** 2)


def jacobi_block(point: ModuliPoint, p: int, r: int, phi0: float,
                 k: int, l: int) -> JacobiBlock:
    """Assemble the (k, l) block and cross-check its determinant.

    The block is Hermitian: a real multiple of the identity plus i times
    two real antisymmetric matrices.
    """
    rpa = _check_boundary(point, p, r)
    a, b = point.a, point.b
    A, B = math.cos(phi0), math.sin(phi0)
    m2 = np.array([[0.0, 0.0, B * p],
                   [0.0, 0.0, A * rpa],
                   [-B * p, -A * rpa, 0.0]])
    mu = l * l * b * b + (k - l * a) ** 2
    mat = (mu * np.eye(3, dtype=complex)
           + 2j * l * b * b * A * _M1
           + 2j * (k - l * a) * m2)
    det = complex(np.linalg.det(mat))
    return JacobiBlock(k=int(k), l=int(l), matrix=mat, det=det,
                       det_closed_form=jacobi_block_det_closed_form(
                           point, p, r, phi0, k, l))


@dataclass(frozen=True)
class KernelPair:
    """The two Jacobi fields spanned by the singular (+-q, 0) blocks.

    V1, V2 map y to real frame components (coefficients of nu1, nu2, nu3);
    residuals certify J V = 0 numerically.  The integrability obstruction:
    a harmonic deformation generating either field would need both
    q = 2p and q = 2|r+a|, which the boundary relation forbids.
    """

    phi0: float
    q: int
    V1: object
    V2: object
    residuals: tuple[float, float]
    needs_q_eq_2p: bool
    needs_q_eq_2rpa: bool
    integrability_possible: bool


def special_phi0_kernel(point: ModuliPoint, p: int, r: int, q: int) -> KernelPair:
    rpa = _check_boundary(point, p, r)
    if 4 * p * p < q * q:
        raise ValueError(f"4 p^2 = {4 * p * p} < q^2 = {q * q}: the "
                         "distinguished latitude does not exist")
    b = point.b
    arg = math.sqrt(4.0 * p * p - q * q) / (2.0 * b)
    if arg > 1.0:
        raise ValueError("latitude argument exceeds 1; q < 2|r+a| here")
    phi0 = math.acos(arg)
    A, B = math.cos(phi0), math.sin(phi0)
    kappa = 2.0 * math.pi * q / b

    def V1(y):
        y = np.asarray(y, dtype=float)
        return np.stack([2.0 * B * p * np.cos(kappa * y),
                         2.0 * A * rpa * np.cos(kappa * y),
                         -q * np.sin(kappa * y)])

    def V2(y):
        y = np.asarray(y, dtype=float)
        return np.stack([2.0 * B * p * np.sin(kappa * y),
                         2.0 * A * rpa * np.sin(kappa * y),
                         q * np.cos(kappa * y)])

    # Fourier content of V1, V2 sits in the (+-q, 0) modes; applying the
    # corresponding blocks to the coefficient vectors certifies J V = 0
    vec_plus = np.array([B * p, A * rpa, 0.5j * q])
    residuals = []
    for kk, vec in ((q, vec_plus), (-q, vec_plus.conjugate())):
        block = jacobi_block(point, p, r, phi0, kk, 0)
        residuals.append(float(np.linalg.norm(block.matrix @ vec)))
    return KernelPair(
        phi0=phi0, q=int(q), V1=V1, V2=V2,
        residuals=(residuals[0], residuals[1]),
        needs_q_eq_2p=(q == 2 * p),
        needs_q_eq_2rpa=(q == 2 * abs(rpa)),
        integrability_possible=(q == 2 * p and q == 2 * abs(rpa)),
    )


# --------------------------------------------------------------------------
# conformal-direction second variation on the rhombic boundary
# --------------------------------------------------------------------------


def hersch_closed_form(b0: float) -> float:
    return 4.0 * math.pi**2 / b0**3 * (9.0 / 8.0 - b0 * b0)


def hersch_quadrature(b0: float) -> float:
    """int (3 <u, e1>^2 - 1) |du|^2 over the torus by the uniform 16 x 16 rule.

    |du|^2 is constant and <u, e1> = cos phi0 cos(2 pi y / b0), so the
    integrand is a trigonometric polynomial of degree 0 in x and 2 in
    2 pi y / b0, which the rule integrates exactly (Trefethen & Weideman,
    SIAM Rev. 56, 2014).
    """
    a0 = math.sqrt(max(1.0 - b0 * b0, 0.0))
    phi0 = math.acos(math.sqrt(3.0) / (2.0 * b0))
    cm = CircleMap(ModuliPoint(a0, b0), 1, 0, phi0)
    t = np.arange(16) / 16.0
    z1, _ = cm.map_values(t[:, None], b0 * t)
    return b0 * float(np.mean(3.0 * z1.real**2 - 1.0)) * 2.0 * cm.energy_density


def hersch_second_variation(b0: float) -> float:
    """Second variation of energy along the first conformal direction of S^3
    at the boundary map with latitude arccos(sqrt(3)/(2 b0)).

    Returns the closed form 4 pi^2 (9/8 - b0^2) / b0^3 after certifying it
    against hersch_quadrature to 1e-9; positive for b0^2 < 9/8, which is why
    the one-sided energy comparison fails for these maps.
    """
    if not 0.0 < b0 <= 1.0:
        raise ValueError(f"b0={b0!r} outside (0, 1]")
    if math.sqrt(3.0) / (2.0 * b0) > 1.0:
        raise ValueError(f"b0={b0!r} below sqrt(3)/2: latitude undefined")
    closed = hersch_closed_form(b0)
    quad_val = hersch_quadrature(b0)
    if abs(closed - quad_val) > 1e-9 * max(1.0, abs(closed)):
        raise RuntimeError(
            f"second-variation quadrature {quad_val!r} disagrees with the "
            f"closed form {closed!r}")
    return closed


# --------------------------------------------------------------------------
# discretized index/nullity of the generic (1,1,0) maps
# --------------------------------------------------------------------------


@dataclass
class IndexNullity:
    index: int
    nullity: int
    converged: bool
    per_mode: dict = field(default_factory=dict)


def _quaternion_j(v):
    """j v = (-conj v2, conj v1): left multiplication by the quaternion j on
    C^2 = H, real-linear and orthogonal, with j (i v) = -i j v."""
    return np.stack([-v[1].conj(), v[0].conj()])


def _frame_coefficients(profiles, y):
    """Pointwise data of the second-variation form in the frame of the map.

    Sections of the pullback tangent bundle are written in the orthonormal
    frame E = (i u, e^{2 pi i x} j u, i e^{2 pi i x} j u), normal to u; the
    flat derivative of V = sum f_a E_a splits into frame-component
    derivatives plus rotation (Omega[a, b] = <dE_b, E_a>) and normal-leak
    (sigma[b] = <dE_b, u>) parts, real inner products in C^2, and

        Q(V) = int |D_x f|^2 + |sigma_x . f|^2 + |D_y f|^2 + |sigma_y . f|^2
               - 2 rho |f|^2,

    rho = |du|^2 / 2 the energy density.  E moves with u under
    x-translation by a unitary map, so the data are those at x = 0, built
    from u, u_y and u_x = (0, 2 pi i z2); every entry is bounded by
    |du| + 2 pi.
    """
    u, u_y = (np.stack(z) for z in profiles.jet(0.0, y))
    u_x = np.stack([np.zeros_like(u[1]), 2j * math.pi * u[1]])
    ju = _quaternion_j(u)
    frame = np.stack([1j * u, ju, 1j * ju])
    # (d/dx, d/dy) of the frame vectors at x = 0
    d_ju = np.stack([2j * math.pi * ju + _quaternion_j(u_x), _quaternion_j(u_y)])
    d_frame = np.stack([1j * np.stack([u_x, u_y]), d_ju, 1j * d_ju], 1)
    omega_x, omega_y = np.einsum("dbkn,akn->dnab", d_frame, frame.conj()).real
    sigma_x, sigma_y = np.einsum("dbkn,kn->dnb", d_frame, u.conj()).real
    rho = 0.5 * np.sum(np.abs(u_x) ** 2 + np.abs(u_y) ** 2, axis=0)
    return omega_x, sigma_x, omega_y, sigma_y, rho


def _grid_frames(profiles, sizes) -> list[_ModeParts]:
    """The l-independent form of each n of `sizes` (_mode_parts), its frame
    coefficients from one evaluation of the map on the half-step grid
    k b / (2 N), N = lcm(sizes): the nodes j h, h = b / n, of n are every
    (2 N / n)-th point from 0 and its midpoints (j + 1/2) h every such point
    from N / n (for (512, 1024), every fourth point from 0 and from 2 for
    n = 512)."""
    point = profiles.point
    n_all = math.lcm(*sizes)
    y = np.arange(2 * n_all) * (point.b / (2 * n_all))
    omega_x, sigma_x, omega_y, sigma_y, rho = _frame_coefficients(profiles, y)
    parts = []
    for n in sizes:
        step = 2 * n_all // n
        nodes, mids = slice(0, None, step), slice(step // 2, None, step)
        parts.append(_mode_parts(point.a, point.b / n, omega_x[nodes],
                                 sigma_x[nodes], sigma_y[nodes], rho[nodes],
                                 omega_y[mids]))
    return parts


class _ModeParts(NamedTuple):
    """One mesh's l-independent part of every mode form, what _mode_matrix
    adds the l-terms to: the lattice's a, max rho over the nodes, the real
    band of the mode-0 form, rows _BAND - 2 to _BAND + 2 of the band of
    Omega_x^T - Omega_x on the diagonal blocks (every other entry 0), where
    in the band the wrap coupling and its transpose sit, and the band's CSC
    pattern: every entry of its 3x3 blocks, as one that is 0 in mode 0 need
    not be in mode l."""

    a: float
    rho_max: float
    band: np.ndarray
    skew: np.ndarray
    wrap_at: tuple
    wrap_t_at: tuple
    pattern: tuple


def _mode_parts(a, h, omega_x, sigma_x, sigma_y, rho,
                omega_y_mid) -> _ModeParts:
    """The band ab[_BAND + i - j, j] = K_0[i, j], |i - j| <= _BAND, of the
    l-independent form K_0 on the n nodes j h of [0, b), from the frame
    coefficients there ((n, 3, 3) omega_x, (n, 3) sigma_x and sigma_y, (n,)
    rho) and the y-rotation at the midpoints ((n, 3, 3) omega_y_mid), its
    nodes in the order 0, n-1, 1, n-2, ..., where neighbours on the period
    (the wrap included) are at most two 3x3 blocks apart.  Row j of the
    staggered first difference B holds L_j = Omega_y/2 - I/h at node j and
    R_j = Omega_y/2 + I/h at j + 1 mod n; K_0 = B^T B (no checkerboard null
    modes) + pointwise terms couples j to j + 1 by L_j^T R_j.  The wrap
    R_{n-1} turns its (E_1, E_2) columns by -2 pi a: u closes on the
    lattice, so E_1 + i E_2 at (a, b) is e^{2 pi i a} times that at (0, 0).
    The diagonal block of node j is L_j^T L_j + R_{j-1}^T R_{j-1}
    + Omega_x^T Omega_x + sigma sigma^T - 2 rho_j I."""
    n = rho.size
    eye = np.eye(3)
    half_omega = 0.5 * omega_y_mid
    left = half_omega - eye / h
    right = half_omega + eye / h
    c, s = math.cos(2.0 * math.pi * a), math.sin(2.0 * math.pi * a)
    right[-1, :, 1:] = right[-1, :, 1:] @ np.array([[c, s], [-s, c]])
    sigma = np.stack([sigma_x, sigma_y], 1)
    factors = np.concatenate([left, np.roll(right, 1, 0), omega_x, sigma], 1)
    diag = (np.einsum("nki,nkj->nij", factors, factors)
            - 2.0 * rho[:, None, None] * eye)
    coupling = np.einsum("nki,nkj->nij", left, right)
    place = np.minimum(2 * np.arange(n), 2 * (n - np.arange(n)) - 1)
    place_next = np.roll(place, -1)
    ii, jj = np.indices((3, 3))

    def at(row, col):
        row, col = row[:, None, None], col[:, None, None]
        return _BAND + 3 * (row - col) + ii - jj, 3 * col + jj

    band, skew = np.zeros((2 * _BAND + 1, 3 * n)), np.zeros((5, 3 * n))
    blocks = np.zeros(band.shape, dtype=bool)
    diag_at, coupling_at, coupling_t_at = (
        at(place, place), at(place, place_next), at(place_next, place))
    band[diag_at] = diag
    band[coupling_at] = coupling
    band[coupling_t_at] = coupling.transpose(0, 2, 1)
    skew[diag_at[0] - (_BAND - 2), diag_at[1]] = (
        omega_x.transpose(0, 2, 1) - omega_x)
    for where in (diag_at, coupling_at, coupling_t_at):
        blocks[where] = True
    return _ModeParts(a, float(np.max(rho)), band, skew,
                      tuple(i[-1].copy() for i in coupling_at),
                      tuple(i[-1].copy() for i in coupling_t_at),
                      _band_pattern(blocks))


def _mode_matrix(parts: _ModeParts, l: int) -> np.ndarray:
    """Hermitian form of the mode-l second variation, mass = identity, as
    the band ab[_BAND + i - j, j] = K[i, j] of _mode_parts' node order;
    ab[:_BAND + 1] is LAPACK's upper band storage.  The x-derivative
    D_x = 2 pi i l I + Omega_x adds D_x^H D_x - Omega_x^T Omega_x
    = 4 pi^2 l^2 I + 2 pi i l (Omega_x^T - Omega_x) to each diagonal block,
    and the wrap R_{n-1} carries e^{-2 pi i l a}, which multiplies its
    coupling and leaves R_{n-1}^H R_{n-1} as it is.  Mode 0 has neither,
    and its form is returned as real."""
    if l == 0:
        return parts.band.copy()
    ab = parts.band.astype(complex)
    ab[_BAND] += 4.0 * math.pi**2 * l * l
    ab[_BAND - 2:_BAND + 3] += 2j * math.pi * l * parts.skew
    phase = np.exp(-2j * math.pi * l * parts.a)
    ab[parts.wrap_at] *= phase
    ab[parts.wrap_t_at] *= phase.conjugate()
    return ab


# Half-width of the inertia window around zero: on the (1,1,0) forms the
# near-zero cluster (discretized rotations and translation) has |lambda| <=
# 4.4e-3 at n = 512, ~4x that at n = 256; every other |lambda| >= 14.
_DELTA = 1.0
# An extrapolated value of the zero cluster must be this close to 0.
ZERO_TOL = 1e-5
# The two meshes of the estimate, coarse first.
RESOLUTIONS = (512, 1024)
# Half-width of every mode form in _mode_parts' node order.
_BAND = 8
# ARPACK's stopping tolerance: values off by ~ARPACK_TOL |lambda - sigma_low|
# <= 1e-8, far inside ZERO_TOL, for a third fewer solves than at tol = 0.
ARPACK_TOL = 1e-10


def _band_pattern(nonzero: np.ndarray) -> tuple:
    """The CSC pattern of the entries marked in the band-shaped `nonzero`,
    its diagonal always included: their flat index in the band, column by
    column, their rows, indptr, and where in that order the diagonal sits."""
    marked = nonzero.T.copy()
    marked[:, _BAND] = True
    dim = marked.shape[0]
    col, offset = np.divmod(np.flatnonzero(marked), 2 * _BAND + 1)
    rows = col + offset - _BAND
    return ((offset * dim + col).astype(np.intc), rows.astype(np.intc),
            np.searchsorted(col, np.arange(dim + 1)).astype(np.intc),
            np.flatnonzero(rows == col))


def _band_inertia(ab: np.ndarray, sigma: float, pattern: tuple) -> int:
    """nu(sigma), the number of eigenvalues below sigma of the Hermitian band
    ab[_BAND + i - j, j] = K[i, j], zero off `pattern`: by Sylvester's law
    of inertia, the number of negative pivots D = diag(U), U = D L^H, of the
    unpivoted LDL^H of K - sigma I.  Its one CSC matrix is a copy of the
    pattern's entries with sigma taken off the diagonal.  A row swap
    (SuperLU's answer to an exactly zero pivot) or a pivot below
    eps ||K - sigma I|| dim raises; the column sums of the Hermitian
    K - sigma I, each column holding its diagonal, are its row sums."""
    at, indices, indptr, diagonal = pattern
    dim = ab.shape[1]
    data = ab.ravel()[at]
    data[diagonal] -= sigma
    lu = splu(csc_matrix((data, indices, indptr), shape=(dim, dim)),
              permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    pivots = lu.U.diagonal()
    norm = np.add.reduceat(np.abs(data), indptr[:-1]).max()
    floor = np.finfo(float).eps * float(norm) * dim
    if (np.any(np.stack([lu.perm_r, lu.perm_c]) != np.arange(dim))
            or not np.all(np.isfinite(pivots) & (np.abs(pivots) >= floor))):
        raise RuntimeError(f"LDL^H of K - sigma I at sigma = {sigma!r}: "
                           "SuperLU pivoted, or a pivot is not finite or "
                           f"below {floor:.3g}")
    return int(np.count_nonzero(pivots.real < 0.0))


def _mode_spectrum(parts: _ModeParts, l: int, coarse_lowest=None):
    """The lowest eigenvalues of the mode-l form, as many as lie below
    +_DELTA (at least one), and its inertia (nu(-_DELTA), nu(+_DELTA)).

    k = nu(+_DELTA) comes from the LDL^H of the band.  The values come by
    shift-invert eigsh, ARPACK keeping 2k + 2 vectors, through the banded
    Cholesky factor U^H U of K - s I, s the largest of these lower bounds on
    the spectrum: sigma_low = -2 max rho - 1 (K >= -2 rho, its other terms
    being Gram matrices); +_DELTA where k = 0, as K - _DELTA I > 0 then;
    coarse_lowest - (1 + 0.1 |coarse_lowest|), where coarse_lowest is the
    lowest value of the mode on a coarser mesh.  The factor's existence
    proves s; where it fails, the error names the mode.

    The values returned are the eigenvalues theta of H = Q^H K Q, Q the
    orthonormalized Ritz vectors.  By Kahan's theorem (Parlett, The
    Symmetric Eigenvalue Problem, 11.5) K has k eigenvalues within ||R||_2,
    R = K Q - Q H, of the theta.  When max theta + ||R||_2 < +_DELTA they
    are the k below +_DELTA, and if also every |theta + _DELTA| >
    ||R||_2, nu(-_DELTA) is the number of theta below -_DELTA.  Only where
    that bound cannot decide is K + _DELTA I factored; k = 0 gives
    nu(-_DELTA) = 0, as nu is monotone."""
    ab = _mode_matrix(parts, l)
    below_plus = _band_inertia(ab, _DELTA, parts.pattern)
    bounds = [-2.0 * parts.rho_max - 1.0]
    if not below_plus:
        bounds.append(_DELTA)
    if coarse_lowest is not None:
        bounds.append(coarse_lowest - (1.0 + 0.1 * abs(coarse_lowest)))
    shift = float(max(bounds))
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    upper = ab[:_BAND + 1]
    shifted = upper.copy()
    shifted[_BAND] -= shift
    chol, info = pbtrf(shifted, overwrite_ab=True)
    if info:
        raise RuntimeError(f"mode {l}: K - sigma I is not positive definite "
                           f"at sigma = {shift!r} (?pbtrf info {info})")
    bmv = get_blas_funcs("hbmv" if np.iscomplexobj(ab) else "sbmv", (ab,))
    dim = ab.shape[1]
    K = LinearOperator((dim, dim), dtype=ab.dtype,
                       matvec=lambda v: bmv(_BAND, 1.0, upper, v))
    # a fixed ARPACK start vector makes the output reproducible to the bit
    v0 = np.random.default_rng(0).standard_normal(dim).astype(ab.dtype)
    op = LinearOperator((dim, dim), lambda v: pbtrs(chol, v)[0],
                        dtype=ab.dtype)
    k = max(below_plus, 1)
    _, ritz = eigsh(K, k=k, sigma=shift, which="LM", v0=v0, ncv=2 * k + 2,
                    OPinv=op, tol=ARPACK_TOL)
    q = qr(ritz, mode="economic")[0]
    kq = K @ q
    # scipy's gemm, not numpy's @: its BLAS is the one ARPACK and the
    # factors already run, where numpy's would add its own pages
    gemm = get_blas_funcs("gemm", (ab,))
    h = gemm(1.0, q, kq, trans_a=2)
    vals = eigh(h, eigvals_only=True)
    residual = kq - gemm(1.0, q, h)
    # ||R||_2 as the root of the largest eigenvalue of R^H R, k x k
    radius = math.sqrt(max(eigh(gemm(1.0, residual, residual, trans_a=2),
                                eigvals_only=True)[-1], 0.0))
    if not below_plus:
        inertia = (0, 0)
    elif vals[-1] + radius < _DELTA and np.all(np.abs(vals + _DELTA) > radius):
        inertia = (int(np.count_nonzero(vals < -_DELTA)), below_plus)
    else:
        inertia = (_band_inertia(ab, -_DELTA, parts.pattern), below_plus)
    return vals, inertia


def index_nullity_estimate(point: ModuliPoint) -> IndexNullity:
    """Energy index and nullity of the (1,1,0) map by Fourier-mode counting.

    Each x-Fourier mode gives a one-dimensional quadratic form in the frame
    components, discretized at the two meshes RESOLUTIONS = (n_lo, n_hi),
    whose frames share one evaluation of the map.  The inertia
    (nu(-_DELTA), nu(+_DELTA)) at n_hi gives the counts: nu(-_DELTA)
    negative eigenvalues and nu(+_DELTA) - nu(-_DELTA) in the zero cluster.
    nu(+_DELTA) comes from an unpivoted LDL^H of K - _DELTA I, and
    nu(-_DELTA) from the eigenvalues below +_DELTA (at least one) and
    Kahan's bound on their Ritz residual, or, where that cannot decide,
    from an LDL^H of K + _DELTA I (_mode_spectrum).  n_hi's shift-invert
    starts from n_lo's lowest value of the same mode.  The values are
    Richardson-extrapolated across the pair when the inertia agrees on both
    meshes, and used to certify the zero cluster.
    Modes l >= 1 count twice (real and imaginary parts).  The mode loop
    stops at the first mode with nu(+_DELTA) = 0, which the l^2 growth of
    the x-term makes final, and at the latest at the first l with
    (l-1)^2 > tau2 + tau3 - tau1: ||Omega_x|| <= 2 pi and 2 rho <= 4 pi^2
    (tau2 + tau3 - tau1) make that mode strictly positive, discretized too.

    Each per_mode[l] entry carries what its classification rests on:
    `borderline` (the zero-cluster values with |v| > ZERO_TOL), `inertia`
    ({"<n>": [nu(-_DELTA), nu(+_DELTA)]} per mesh) and
    `counts_match` (the inertia agrees on both meshes).  `converged` is
    False when any mode has a borderline value or mismatched counts, or
    when the nullity is below 6.
    """
    n_lo, n_hi = RESOLUTIONS
    params = classify_params(point, 1, 1, 0)
    tau = solve_tau(point, params)
    profiles = build_profiles(tau, params, point)
    tau_sum = tau.tau2 + tau.tau3 - tau.tau1
    l_positive = math.floor(math.sqrt(tau_sum)) + 2
    parts_lo, parts_hi = _grid_frames(profiles, RESOLUTIONS)
    # second-order scheme: Richardson with ratio s removes the h^2 term
    s2 = (n_hi / n_lo) ** 2

    index = nullity = 0
    converged = True
    per_mode = {}
    for l in range(l_positive + 1):
        lo, inertia_lo = _mode_spectrum(parts_lo, l)
        hi, inertia_hi = _mode_spectrum(parts_hi, l, lo[0])
        counts_match = inertia_lo == inertia_hi
        vals = (s2 * hi - lo) / (s2 - 1.0) if counts_match else hi
        neg, below_plus = inertia_hi
        zero = below_plus - neg
        cluster = vals[neg:below_plus]
        borderline = cluster[np.abs(cluster) > ZERO_TOL]
        converged &= counts_match and not borderline.size
        per_mode[l] = {"negative": neg, "zero": zero,
                       "smallest": float(vals[0]),
                       "borderline": [float(v) for v in borderline],
                       "counts_match": counts_match,
                       "inertia": {str(n_lo): list(inertia_lo),
                                   str(n_hi): list(inertia_hi)}}
        weight = 1 if l == 0 else 2
        index += weight * neg
        nullity += weight * zero
        if below_plus == 0:
            break
    # the six Killing fields of SO(4) give six Jacobi fields, independent on
    # a linearly full map, so a nullity below 6 is under-resolved
    converged &= nullity >= 6
    return IndexNullity(index=index, nullity=nullity, converged=converged,
                        per_mode=per_mode)
