"""Jacobi-operator diagnostics: blocks, kernel fields, second variation,
index/nullity counts."""

import functools
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from eqtorus import stability
from eqtorus.maps import build_profiles
from eqtorus.stability import (
    _band_inertia,
    _band_pattern,
    _frame_coefficients,
    _grid_frames,
    _mode_matrix,
    _mode_parts,
    _mode_spectrum,
    _quaternion_j,
    hersch_closed_form,
    hersch_quadrature,
    hersch_second_variation,
    index_nullity_estimate,
    jacobi_block,
    special_phi0_kernel,
)
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    classify_params,
    solve_tau,
)

# boundary data of (p, q, r) = (1, 2, 1) type: (r+a)^2 + b^2 = p^2
PT_121 = ModuliPoint(-0.5, math.sqrt(0.75))


class TestJacobiBlock:
    def test_zero_mode_block_vanishes(self):
        blk = jacobi_block(PT_121, 1, 1, 0.7, 0, 0)
        assert abs(blk.det) == 0.0
        assert np.max(np.abs(blk.matrix)) == 0.0

    def test_special_latitude_kills_pm_q_blocks(self):
        kp = special_phi0_kernel(PT_121, 1, 1, 2)
        for k in (2, -2):
            blk = jacobi_block(PT_121, 1, 1, kp.phi0, k, 0)
            assert abs(blk.det) <= 1e-10
            # rank drops to exactly 2
            svals = np.linalg.svd(blk.matrix, compute_uv=False)
            assert svals[1] > 1e-9
            assert svals[2] <= 1e-12

    def test_generic_block_nonsingular(self):
        pt = ModuliPoint(0.0, 1.0)
        # on Clifford data the (1,1) block is singular for every latitude
        # (4A^2 + 4B^2 = mu^2 there); (2,1) is genuinely generic
        blk_sing = jacobi_block(pt, 1, 0, math.pi / 4, 1, 1)
        assert abs(blk_sing.det) == 0.0
        blk = jacobi_block(pt, 1, 0, math.pi / 4, 2, 1)
        assert abs(blk.det) == pytest.approx(75.0, rel=1e-12)

    def test_hermitian_and_det_closed_form(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            p = int(rng.integers(1, 4))
            r = int(rng.integers(-2, 3))
            a = float(rng.uniform(-1.5, 1.5))
            b_sq = p * p - (r + a) ** 2
            if b_sq <= 1e-3:
                continue
            pt = ModuliPoint(a, math.sqrt(b_sq))
            phi0 = float(rng.uniform(0.0, math.pi / 2))
            k = int(rng.integers(-4, 5))
            l = int(rng.integers(-3, 4))
            blk = jacobi_block(pt, p, r, phi0, k, l)
            assert np.max(np.abs(blk.matrix - blk.matrix.conj().T)) < 1e-12
            scale = max(1.0, abs(blk.det_closed_form))
            assert abs(blk.det - blk.det_closed_form) / scale < 1e-10
            assert abs(blk.det.imag) / scale < 1e-10
            checked += 1

    def test_off_boundary_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            jacobi_block(ModuliPoint(0.0, 2.0), 1, 0, 0.3, 1, 0)


@pytest.fixture(scope="module")
def kp():
    return special_phi0_kernel(PT_121, 1, 1, 2)


class TestKernel:

    def test_residuals(self, kp):
        assert max(kp.residuals) <= 1e-9

    def test_value_at_origin(self, kp):
        A, B = math.cos(kp.phi0), math.sin(kp.phi0)
        v = kp.V1(0.0).ravel()
        assert v[0] == pytest.approx(2 * B * 1, rel=1e-12)
        assert v[1] == pytest.approx(2 * A * (1 + PT_121.a), abs=1e-12)
        assert v[2] == 0.0

    def test_fields_orthogonal_over_torus(self, kp):
        b = PT_121.b
        val, _ = quad(lambda y: float(np.dot(kp.V1(y).ravel(),
                                             kp.V2(y).ravel())), 0.0, b,
                      epsabs=1e-12)
        assert abs(val) <= 1e-10

    def test_integrability_obstruction(self, kp):
        # would need q = 2p and q = 2|r+a| at once; the boundary forbids it
        assert kp.needs_q_eq_2p
        assert not kp.needs_q_eq_2rpa
        assert not kp.integrability_possible

    def test_domain_errors(self):
        pt = ModuliPoint(0.8, 0.6)
        with pytest.raises(ValueError, match="4 p"):
            special_phi0_kernel(pt, 1, 0, 3)


class TestHersch:
    def test_square_boundary_value(self):
        assert hersch_second_variation(1.0) == pytest.approx(
            math.pi**2 / 2, abs=1e-12)

    def test_equilateral_boundary_positive(self):
        b0 = math.sqrt(3) / 2
        val = hersch_second_variation(b0)
        assert val == pytest.approx(4 * math.pi**2 / b0**3 * (9 / 8 - 3 / 4),
                                    rel=1e-12)
        assert val > 0.0

    def test_quadrature_agreement(self):
        for b0 in (math.sqrt(3) / 2, 0.9, 0.95, 1.0):
            assert hersch_quadrature(b0) == pytest.approx(
                hersch_closed_form(b0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            hersch_second_variation(0.5)
        with pytest.raises(ValueError):
            hersch_second_variation(1.5)


def _profiles_110(a, b):
    point = ModuliPoint(a, b)
    params = classify_params(point, 1, 1, 0)
    return build_profiles(solve_tau(point, params), params, point)


def _twist(a):
    """The Floquet wrap of the frame components at (a, b): E_0 = i u is
    periodic, and (E_1, E_2) turns by -2 pi a."""
    c, s = math.cos(2.0 * math.pi * a), math.sin(2.0 * math.pi * a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _reference_mode_matrix(profiles, l, n):
    """The mode-l form built node by node from its definition, dense:
    B has -I/h + Omega_y(mid)/2 on the block diagonal and I/h + Omega_y(mid)/2
    one block to the right (the last one wrapping to block 0 with the Floquet
    phase e^{-2 pi i l a} times the frame twist); K = B^H B plus, on each
    node's diagonal block,
    D_x^H D_x + sigma_x sigma_x^T + sigma_y sigma_y^T - 2 rho I with
    D_x = 2 pi i l I + Omega_x."""
    b, a = profiles.point.b, profiles.point.a
    h = b / n
    y = np.arange(n) * h
    omega_x, sigma_x, _, sigma_y, rho = _frame_coefficients(profiles, y)
    omega_y_mid = _frame_coefficients(profiles, y + 0.5 * h)[2]
    eye = np.eye(3)
    B = np.zeros((3 * n, 3 * n), dtype=complex)
    for j in range(n):
        jn = (j + 1) % n
        phase = np.exp(-2j * math.pi * l * a) * _twist(a) if jn == 0 else eye
        B[3 * j:3 * j + 3, 3 * j:3 * j + 3] += -eye / h + 0.5 * omega_y_mid[j]
        B[3 * j:3 * j + 3, 3 * jn:3 * jn + 3] += \
            (eye / h + 0.5 * omega_y_mid[j]) @ phase
    K = B.conj().T @ B
    for j in range(n):
        dx = 2j * math.pi * l * eye + omega_x[j]
        K[3 * j:3 * j + 3, 3 * j:3 * j + 3] += (
            dx.conj().T @ dx + np.outer(sigma_x[j], sigma_x[j])
            + np.outer(sigma_y[j], sigma_y[j]) - 2.0 * rho[j] * eye)
    return K


def _interleaved_index(n):
    """Scalar indices, in node order, of the band's rows: the nodes
    0, n-1, 1, n-2, ..., three frame components each."""
    order = [j // 2 if j % 2 == 0 else n - 1 - j // 2 for j in range(n)]
    return (3 * np.array(order)[:, None] + np.arange(3)).ravel()


def _band_dense(ab):
    """The matrix of the band ab[kd + i - j, j] = K[i, j], |i - j| <= kd."""
    kd, dim = ab.shape[0] // 2, ab.shape[1]
    K = np.zeros((dim, dim), dtype=ab.dtype)
    for k in range(-kd, kd + 1):  # k places right of the diagonal
        j = np.arange(max(k, 0), min(dim, dim + k))
        K[j - k, j] = ab[kd - k, j]
    return K


def _dense_band(K):
    """The band ab[kd + i - j, j] = K[i, j], kd = _BAND, of a dense matrix,
    zero outside it."""
    kd, dim = stability._BAND, K.shape[0]
    ab = np.zeros((2 * kd + 1, dim), dtype=K.dtype)
    for k in range(-kd, kd + 1):
        j = np.arange(max(k, 0), min(dim, dim + k))
        ab[kd - k, j] = K[j - k, j]
    return ab


def _natural(ab):
    """The band's matrix back in node order 0, 1, ..., n-1."""
    idx = _interleaved_index(ab.shape[1] // 3)
    K = np.empty((ab.shape[1],) * 2, dtype=ab.dtype)
    K[np.ix_(idx, idx)] = _band_dense(ab)
    return K


class TestModeMatrix:
    @pytest.mark.parametrize("a,b", [(0.0, 1.6), (0.3, 1.4), (0.45, 1.25),
                                     (0.5, 1.4)])
    def test_matches_node_loop_reference(self, a, b):
        # the meshes come from one evaluation on the half-step grid of
        # lcm(12, 15, 16, 32) = 480; n = 15 is odd
        prof = _profiles_110(a, b)
        sizes = (12, 15, 16, 32)
        for n, parts in zip(sizes, _grid_frames(prof, sizes)):
            idx = _interleaved_index(n)
            for l in (0, 1, 2):
                ab = _mode_matrix(parts, l)
                assert ab.shape == (17, 3 * n)
                assert np.isrealobj(ab) == (l == 0)
                ref = _reference_mode_matrix(prof, l, n)[np.ix_(idx, idx)]
                # the interleaved reference has half-width 8: no corner
                assert np.abs(np.triu(ref, 9)).max() == 0.0
                K = _band_dense(ab)
                assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.max(np.abs(K - K.conj().T)) <= \
                    1e-12 * np.max(np.abs(K))

    def test_wrap_block_carries_the_floquet_phase(self):
        # constant coefficients make the form block-circulant up to the wrap
        rng = np.random.default_rng(7)
        n = 8
        w = rng.normal(size=(3, 3))
        coefficients = dict(
            h=0.1,
            omega_x=np.tile(w - w.T, (n, 1, 1)),
            sigma_x=np.tile(rng.normal(size=3), (n, 1)),
            sigma_y=np.tile(rng.normal(size=3), (n, 1)),
            rho=np.full(n, 0.7),
            omega_y_mid=np.tile(w.T - w, (n, 1, 1)))

        def coupling(K, j):
            jn = (j + 1) % n
            return K[3 * j:3 * j + 3, 3 * jn:3 * jn + 3]

        K0 = _natural(_mode_matrix(_mode_parts(0.0, **coefficients), 0))
        interior = coupling(K0, 0)
        for j in range(1, n):
            assert np.array_equal(coupling(K0, j), interior)
        assert np.abs(K0.imag).max() == 0.0

        K1 = _natural(_mode_matrix(_mode_parts(0.3, **coefficients), 1))
        interior = coupling(K1, 0)
        assert np.allclose(coupling(K1, n - 1),
                           interior @ _twist(0.3) * np.exp(-2j * math.pi * 0.3),
                           rtol=0.0, atol=1e-12 * np.abs(interior).max())

        # at a = 1/2 the twist negates the E_1 and E_2 columns of the wrap,
        # and the opposite turn is a different form
        wrap = coupling(
            _natural(_mode_matrix(_mode_parts(0.5, **coefficients), 0)), n - 1)
        ref = coupling(K0, n - 1)
        assert np.array_equal(wrap[:, 0], ref[:, 0])
        assert np.allclose(wrap[:, 1:], -ref[:, 1:], rtol=0.0, atol=1e-12)
        assert not np.allclose(coupling(K1, n - 1),
                               interior @ _twist(-0.3)
                               * np.exp(-2j * math.pi * 0.3))


def _frame(profiles, x, y):
    """(3, 2, n) frame (i u, e^{2 pi i x} j u, i e^{2 pi i x} j u) and u,
    built from the map at (x, y)."""
    u = np.stack(profiles.map_values(x, y))
    ju = np.exp(2j * math.pi * x) * _quaternion_j(u)
    return np.stack([1j * u, ju, 1j * ju]), u


class TestSignedFrame:
    """The frame comes from the map alone: orthonormal, normal to u and
    turned by e^{2 pi i a} on the lattice in every regime, including the
    second-limit maps whose signed sin phi gains (-1)^q over b (flip = -1),
    which the latitude-angle frame had to special-case."""

    @pytest.mark.parametrize("a,b,pqr,flip", [
        (0.0, 1.6, (1, 1, 0), 1.0), (0.3, 1.4, (1, 1, 0), 1.0),
        (0.45, 1.25, (1, 1, 0), 1.0), (0.5, 1.4, (1, 1, 0), -1.0),
        (0.5, 2.0, (2, 3, 1), -1.0), (0.0, 2.5, (2, 2, 1), 1.0),
        (0.25, 1.25, (1, 2, 0), 1.0), (0.0, 1.3, (1, 2, 1), 1.0)])
    def test_frame_flip(self, a, b, pqr, flip):
        point = ModuliPoint(a, b)
        params = classify_params(point, *pqr)
        prof = build_profiles(solve_tau(point, params), params, point)
        sphi = prof.cos_sin_phi(np.array([0.0, b]))[1]
        assert sphi[1] / sphi[0] == pytest.approx(flip, abs=1e-9)

        y = np.linspace(0.0, b, 33)
        E, u = _frame(prof, 0.37, y)
        gram = np.einsum("akn,bkn->nab", E, E.conj()).real
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape),
                                   rtol=0.0, atol=1e-14)
        normal = np.einsum("akn,kn->na", E, u.conj()).real
        assert np.max(np.abs(normal)) <= 1e-14

        E0 = _frame(prof, 0.0, 0.0)[0]
        Eab = _frame(prof, a, b)[0]
        twist = np.array([1.0, np.exp(2j * math.pi * a), np.exp(2j * math.pi * a)])
        np.testing.assert_allclose(Eab, twist[:, None] * E0, rtol=0.0,
                                   atol=1e-9)

    def test_sin_cos_product_is_signed(self):
        # the x-rotation between i u and (j u, i j u) at x = 0 is
        # 2 pi cos phi sin phi e^{i (theta + alpha)}: the signed product,
        # with its sign change over [0, b) in the second limit
        prof = _profiles_110(0.5, 1.4)
        y = np.linspace(0.0, prof.point.b, 64, endpoint=False)
        omega_x = _frame_coefficients(prof, y)[0]
        cphi, sphi = prof.cos_sin_phi(y)
        turn = np.exp(1j * (prof.theta(y) + prof.alpha(y)))
        np.testing.assert_allclose(omega_x[:, 0, 1] + 1j * omega_x[:, 0, 2],
                                   2.0 * math.pi * sphi * cphi * turn,
                                   rtol=0.0, atol=1e-14)
        assert (sphi * cphi).min() < -0.1 < 0.1 < (sphi * cphi).max()

    @pytest.mark.parametrize("resolutions", [(256, 512), (512, 1024)])
    def test_index_at_second_limit(self, monkeypatch, resolutions):
        # the six rotational Jacobi fields force nullity >= 6; an unsigned
        # sin phi cos phi gave (7, 0) with converged True here
        monkeypatch.setattr(stability, "RESOLUTIONS", resolutions)
        est = index_nullity_estimate(ModuliPoint(0.5, 1.4))
        assert (est.index, est.nullity) == (3, 7)
        assert est.converged
        assert set(est.per_mode[0]["inertia"]) == {str(n) for n in resolutions}


class TestResolutions:
    @pytest.mark.parametrize("bad", [(512,), (512, 1024, 2048), (512, 512),
                                     (1024, 512), (0, 512), (-256, 512),
                                     (256.0, 512), "256,512", 512])
    def test_rejected(self, bad):
        # the meshes are the constant stability.RESOLUTIONS, not a keyword
        with pytest.raises(TypeError, match="resolutions"):
            index_nullity_estimate(ModuliPoint(0.3, 1.4), resolutions=bad)
        assert stability.RESOLUTIONS == (512, 1024)

    def test_richardson_exact_for_any_ratio(self, monkeypatch):
        # eigenvalues with a pure h^2 error: extrapolation recovers them;
        # six zeros, the fewest a converged estimate may have
        exact = np.array([-2.5, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0])
        point = ModuliPoint(0.3, 1.4)

        def fake_spectrum(parts, l, coarse_lowest=None):
            if l > 0:
                return np.array([50.0]), (0, 0)
            h = point.b / (parts.band.shape[1] // 3)  # three rows a node
            return exact + 40.0 * h**2, (2, 8)

        monkeypatch.setattr(stability, "_mode_spectrum", fake_spectrum)
        for res in ((64, 192), (48, 80), (64, 128)):
            monkeypatch.setattr(stability, "RESOLUTIONS", res)
            est = index_nullity_estimate(point)
            assert (est.index, est.nullity) == (2, 6)
            assert est.converged
            assert est.per_mode[0]["smallest"] == pytest.approx(-2.5,
                                                                abs=1e-12)
        # ratio 2 is bit-identical to the (4 hi - lo) / 3 formula
        h_lo, h_hi = point.b / 64, point.b / 128
        lo, hi = exact + 40.0 * h_lo**2, exact + 40.0 * h_hi**2
        assert est.per_mode[0]["smallest"] == ((4.0 * hi - lo) / 3.0)[0]


def _random_points_110(count, seed):
    rng = np.random.default_rng(seed)
    return [ModuliPoint(float(rng.uniform(0.0, 0.5)),
                        float(rng.uniform(1.05, 2.5))) for _ in range(count)]


class TestSpectrumSlicing:
    """Inertia counts and lowest eigenvalues against dense eigvalsh."""

    @pytest.mark.parametrize(
        "point", [ModuliPoint(0.3, 1.4)] + _random_points_110(5, seed=11),
        ids=lambda pt: f"a={pt.a:.3f},b={pt.b:.3f}")
    def test_inertia_and_lowest_values_match_dense(self, point):
        prof = _profiles_110(point.a, point.b)
        for n, parts in zip((16, 32, 64), _grid_frames(prof, (16, 32, 64))):
            sigma_low = -2.0 * parts.rho_max - 1.0
            # the form's own pattern, every entry of its 3x3 blocks, holds
            # all of its nonzeros
            off_pattern = np.ones((17, 3 * n), dtype=bool)
            off_pattern.flat[parts.pattern[0]] = False
            for l in (0, 1, 2):
                assert not np.any(_mode_matrix(parts, l)[off_pattern])
                K = _band_dense(_mode_matrix(parts, l))
                dense = np.linalg.eigvalsh(K)
                ab = _dense_band(K)
                pattern = _band_pattern(ab != 0.0)
                for sigma in (-1e-2, 1e-2, -1.0, 1.0, sigma_low):
                    below = _band_inertia(ab, sigma, pattern)
                    assert below == int(np.sum(dense < sigma)), (n, l, sigma)
                vals, inertia = _mode_spectrum(parts, l)
                assert inertia == (int(np.sum(dense < -1.0)),
                                   int(np.sum(dense < 1.0)))
                assert vals.size == max(inertia[1], 1)
                assert np.max(np.abs(vals - dense[:vals.size])) <= \
                    1e-10 * max(1.0, np.max(np.abs(vals)))

    def test_one_inertia_factor_and_one_cholesky_per_mode(self,
                                                          monkeypatch):
        # on each mesh a mode form makes one LDL^H, at +delta, one ?pbtrf
        # and one eigsh call: the Ritz residual decides nu(-delta), at
        # modes 0 and 1 here, and nu(+delta) = 0 decides it at mode 2; the
        # finer mesh shifts from the coarser one's lowest value
        meshes = _grid_frames(_profiles_110(0.3, 1.4), (32, 64))
        shifts, routines, solves = [], [], []
        band_inertia = stability._band_inertia
        get_lapack_funcs = stability.get_lapack_funcs
        eigsh = stability.eigsh

        def spy_inertia(ab, sigma, pattern):
            shifts.append(sigma)
            return band_inertia(ab, sigma, pattern)

        def spy_lapack(names, arrays):
            routines.extend(names)
            return get_lapack_funcs(names, arrays)

        def spy_eigsh(A, **kwargs):
            solves.append(kwargs["sigma"])
            return eigsh(A, **kwargs)

        monkeypatch.setattr(stability, "_band_inertia", spy_inertia)
        monkeypatch.setattr(stability, "get_lapack_funcs", spy_lapack)
        monkeypatch.setattr(stability, "eigsh", spy_eigsh)
        delta = stability._DELTA
        below_plus = []
        for l in (0, 1, 2):
            coarse_lowest = None
            for parts in meshes:
                shifts.clear()
                routines.clear()
                solves.clear()
                vals, inertia = _mode_spectrum(parts, l, coarse_lowest)
                assert shifts == [delta]
                assert routines.count("pbtrf") == 1 and len(solves) == 1
                if coarse_lowest is not None:
                    assert solves[0] == coarse_lowest - (
                        1.0 + 0.1 * abs(coarse_lowest))
                coarse_lowest = vals[0]
            below_plus.append(inertia[1])
        assert below_plus[0] > 0 and below_plus[1] > 0 and below_plus[2] == 0

    def test_mode_parts_built_once_per_frame(self, monkeypatch):
        # the l-independent parts are built once per mesh, when the meshes
        # are made: modes 0-3 of two meshes build them twice, and every
        # mode form is made from the parts of its mesh
        built, used = [], []
        mode_parts = stability._mode_parts
        mode_matrix = stability._mode_matrix

        def spy_parts(*args):
            built.append(mode_parts(*args))
            return built[-1]

        def spy_matrix(parts, l):
            used.append(parts)
            return mode_matrix(parts, l)

        monkeypatch.setattr(stability, "_mode_parts", spy_parts)
        monkeypatch.setattr(stability, "_mode_matrix", spy_matrix)
        meshes = _grid_frames(_profiles_110(0.3, 1.4), (16, 32))
        assert len(built) == 2
        assert all(a is b for a, b in zip(built, meshes))
        for l in range(4):
            for parts in meshes:
                _mode_spectrum(parts, l)
                assert used[-1] is parts
        assert len(built) == 2

    def test_eigsh_sees_the_form(self, monkeypatch):
        # eigsh's A is the band product K x, the one the Ritz residual
        # uses, and OPinv solves (K - sigma I) y = x for eigsh's sigma,
        # through the banded Cholesky factor, at sigma_low, at +delta (mode
        # 2) and at a shift from a coarser mesh's lowest value
        parts = _grid_frames(_profiles_110(0.3, 1.4), (16,))[0]
        seen = []
        eigsh = stability.eigsh

        def spy_eigsh(A, **kwargs):
            seen.append((A, kwargs))
            return eigsh(A, **kwargs)

        monkeypatch.setattr(stability, "eigsh", spy_eigsh)
        eye = np.eye(48)
        x = np.random.default_rng(3).standard_normal(48)
        sigma_low = -2.0 * parts.rho_max - 1.0
        for l, coarse_lowest, sigma in (
                (0, None, sigma_low), (1, None, sigma_low),
                (2, None, stability._DELTA), (0, -30.0, -34.0),
                (2, 35.0, 30.5)):
            seen.clear()
            _mode_spectrum(parts, l, coarse_lowest)
            K = _band_dense(_mode_matrix(parts, l))
            A, kwargs = seen[0]
            assert kwargs["sigma"] == sigma
            dense = A @ eye.astype(K.dtype)
            assert np.max(np.abs(dense - K)) <= 1e-12 * np.max(np.abs(K))
            y = kwargs["OPinv"] @ x.astype(K.dtype)
            residual = K @ y - sigma * y - x
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(x))

    def test_cholesky_proves_sigma_low_bound(self, monkeypatch):
        # a form with a value below its shift, sigma_low = -2 max rho - 1
        # or, on a finer mesh, one from a coarser mesh's lowest value, has
        # no Cholesky factor of K - sigma I, and the error names the mode
        parts_lo, parts_hi = _grid_frames(_profiles_110(0.3, 1.4), (32, 64))
        sigma_low = -2.0 * parts_lo.rho_max - 1.0
        coarse = {l: _mode_spectrum(parts_lo, l)[0][0] for l in (0, 1, 2)}
        mode_matrix = stability._mode_matrix
        sink = {}

        def sunk(parts, l):
            ab = mode_matrix(parts, l)
            # the Rayleigh quotient of e_7 drops below the shift
            ab[stability._BAND, 7] = sink[l]
            return ab

        monkeypatch.setattr(stability, "_mode_matrix", sunk)
        for l in (0, 1):
            sink[l] = sigma_low - 1.0
            with pytest.raises(RuntimeError,
                               match=f"mode {l}: .*not positive definite"):
                _mode_spectrum(parts_lo, l)
        for l in (0, 1, 2):
            shift = float(coarse[l] - (1.0 + 0.1 * abs(coarse[l])))
            sink[l] = shift - 1.0
            with pytest.raises(RuntimeError,
                               match=f"mode {l}: .*not positive definite "
                                     f"at sigma = {re.escape(repr(shift))} "):
                _mode_spectrum(parts_hi, l, coarse[l])

    def test_band_inertia_where_the_bound_cannot_decide(self, monkeypatch):
        # the lowest value moved to 1e-7 below -delta, and eigsh's Ritz
        # vectors coarsened to a residual near 1e-4, far above it: Kahan's
        # bound cannot place that value against -delta, so K + delta I is
        # factored, and the counts are the dense form's.  ARPACK keeps
        # 2k + 2 vectors for the k values wanted
        parts = _grid_frames(_profiles_110(0.3, 1.4), (16,))[0]
        delta = stability._DELTA
        mode_matrix = stability._mode_matrix
        band_inertia = stability._band_inertia
        eigsh = stability.eigsh
        moved, shifts, spaces = {}, [], []

        def moved_form(parts, l):
            ab = mode_matrix(parts, l)
            ab[stability._BAND] += moved[l]
            return ab

        def spy_inertia(ab, sigma, pattern):
            shifts.append(sigma)
            return band_inertia(ab, sigma, pattern)

        def spy_eigsh(A, **kwargs):
            spaces.append((kwargs["k"], kwargs["ncv"]))
            vals, vecs = eigsh(A, **kwargs)
            rng = np.random.default_rng(5)
            return vals, vecs + 1e-6 * rng.standard_normal(vecs.shape)

        for l in (0, 1):
            lowest = np.linalg.eigvalsh(_band_dense(mode_matrix(parts, l)))[0]
            moved[l] = -delta - 1e-7 - lowest
        monkeypatch.setattr(stability, "_mode_matrix", moved_form)
        monkeypatch.setattr(stability, "_band_inertia", spy_inertia)
        monkeypatch.setattr(stability, "eigsh", spy_eigsh)
        for l in (0, 1):
            dense = np.linalg.eigvalsh(_band_dense(moved_form(parts, l)))
            assert -delta - 2e-7 < dense[0] < -delta < dense[1]
            shifts.clear()
            spaces.clear()
            _, inertia = _mode_spectrum(parts, l)
            assert inertia == (int(np.sum(dense < -delta)),
                               int(np.sum(dense < delta)))
            assert shifts == [delta, -delta]
            k = max(inertia[1], 1)
            assert spaces == [(k, 2 * k + 2)]

    @pytest.mark.parametrize("dense", [
        [[0.0, 1.0], [1.0, 0.0]],                          # zero first pivot
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],  # zero second
        [[1e-30, 1.0], [1.0, 1.0]],                         # tiny first
    ])
    def test_unpivoted_factorization_guarded(self, dense):
        # an exactly zero pivot makes SuperLU swap rows and a tiny one
        # leaves the sign count untrustworthy: both raise, naming the shift
        ab = _dense_band(np.array(dense, dtype=complex))
        with pytest.raises(RuntimeError, match="sigma = 0.0"):
            _band_inertia(ab, 0.0, _band_pattern(ab != 0.0))

    @pytest.mark.parametrize("bad", [0.0, -1e-5, 0.1, 1.0, math.nan])
    def test_zero_tol_rejected(self, bad):
        # zero_tol is the constant stability.ZERO_TOL, not a keyword
        with pytest.raises(TypeError, match="zero_tol"):
            index_nullity_estimate(ModuliPoint(0.3, 1.4), zero_tol=bad)
        assert stability.ZERO_TOL == 1e-5


@functools.lru_cache(maxsize=None)
def _estimate(a, b):
    """index_nullity_estimate at (a, b), computed once per test session."""
    return index_nullity_estimate(ModuliPoint(a, b))


@pytest.fixture(scope="module")
def reference_estimate():
    return _estimate(0.3, 1.4)


# the regression set: the three criterion-9 points, a -> 1/2 at b = 1.4,
# two points at larger b and the point where the map misses closing
PINNED_POINTS = [(0.3, 1.4), (0.0, 1.6), (0.45, 1.25), (0.49, 1.4),
                 (0.499, 1.4), (0.4999, 1.4), (0.5, 1.4), (-0.5, 1.4),
                 (0.1, 2.5), (0.0, 3.0), (0.49999, 1.4)]


class TestIndexNullity:
    def test_reference_point(self, reference_estimate):
        est = reference_estimate
        assert est.index <= 4
        assert est.nullity >= 6
        assert (est.index, est.nullity) == (3, 7)
        assert est.converged

    def test_per_mode_diagnostics(self, reference_estimate):
        for row in reference_estimate.per_mode.values():
            assert {"negative", "zero", "smallest", "borderline",
                    "counts_match", "inertia"} <= row.keys()
            assert row["borderline"] == []
            assert row["counts_match"] is True
            # nu(-delta) negative values, nu(+delta) - nu(-delta) zero ones
            assert set(row["inertia"]) == {"512", "1024"}
            for below_minus, below_plus in row["inertia"].values():
                assert below_minus == row["negative"]
                assert below_plus - below_minus == row["zero"]

    def test_mode_loop_ends_within_positivity_bound(self, reference_estimate):
        # every mode with (l-1)^2 > tau2 + tau3 - tau1 is strictly positive;
        # the loop must have stopped at a strictly positive mode by then
        point = ModuliPoint(0.3, 1.4)
        params = classify_params(point, 1, 1, 0)
        tau = solve_tau(point, params)
        tau_sum = tau.tau2 + tau.tau3 - tau.tau1
        l_positive = math.floor(math.sqrt(tau_sum)) + 2
        assert (l_positive - 1) ** 2 > tau_sum >= (l_positive - 2) ** 2
        last = max(reference_estimate.per_mode)
        assert last <= l_positive
        row = reference_estimate.per_mode[last]
        assert row["negative"] == 0 and row["zero"] == 0
        assert row["smallest"] > stability.ZERO_TOL
        # the bound holds for the discretized form at the first such mode
        parts = _grid_frames(build_profiles(tau, params, point), (256,))[0]
        vals, _ = _mode_spectrum(parts, l_positive)
        bound = 4.0 * math.pi**2 * ((l_positive - 1) ** 2 - tau_sum)
        assert vals[0] >= bound > 0.0

    def test_counts_from_inertia_at_borderline_point(self):
        # at (0.49999, 1.4), 1 - tau2 = 5.2e-12, the zero values of modes 0
        # and 1 extrapolate to |v| ~ 1e-5 to 1.5e-4, above ZERO_TOL: the
        # inertia still counts them, and they are flagged
        est = _estimate(0.49999, 1.4)
        assert (est.index, est.nullity) == (3, 7)
        assert not est.converged
        for l, counts, inertia in ((0, (1, 3), [1, 4]), (1, (1, 2), [1, 3])):
            row = est.per_mode[l]
            assert (row["negative"], row["zero"]) == counts
            assert row["inertia"] == {"512": inertia, "1024": inertia}
            assert row["borderline"]
            assert all(stability.ZERO_TOL < abs(v) < 1e-3
                       for v in row["borderline"])
        assert not est.per_mode[2]["borderline"]

    @pytest.mark.parametrize("a,b", [(0.49, 1.4), (0.499, 1.4),
                                     (0.4999, 1.4), (0.5, 1.4), (-0.5, 1.4),
                                     (0.1, 2.5), (0.0, 3.0)])
    def test_converged_where_sin_phi_turns_fast(self, a, b):
        # the latitude-angle frame turned at alpha' = d / sin^2 phi and read
        # (5, 3) at a = 0.499 and 0.4999, and flagged the others
        est = _estimate(a, b)
        assert (est.index, est.nullity) == (3, 7)
        assert est.converged

    @pytest.mark.parametrize("a,b", PINNED_POINTS)
    def test_pinned_inertia(self, a, b):
        # on both meshes mode 0 reads [nu(-1), nu(+1)] = [1, 4], mode 1
        # [1, 3] and mode 2 [0, 0], which ends the loop; only the open map
        # at (0.49999, 1.4) has borderline values, three in mode 0 and one
        # in mode 1
        est = _estimate(a, b)
        closes = (a, b) != (0.49999, 1.4)
        assert (est.index, est.nullity, est.converged) == (3, 7, closes)
        assert list(est.per_mode) == [0, 1, 2]
        for l, inertia, borderline in ((0, [1, 4], 3), (1, [1, 3], 1),
                                       (2, [0, 0], 0)):
            row = est.per_mode[l]
            assert row["inertia"] == {"512": inertia, "1024": inertia}
            assert row["counts_match"] is True
            assert len(row["borderline"]) == (0 if closes else borderline)

    @pytest.mark.parametrize("a,b,resolutions", [
        (0.3, 1.4, (2, 3)), (0.3, 1.4, (2, 4)), (0.3, 1.4, (3, 6)),
        (0.0, 1.6, (2, 3)), (0.0, 1.6, (2, 4)),
        (0.45, 1.25, (2, 3)), (0.45, 1.25, (2, 4)), (0.45, 1.25, (3, 6)),
        (0.5, 1.4, (2, 3)), (0.5, 1.4, (2, 4))])
    def test_nullity_below_six_not_converged(self, monkeypatch, a, b,
                                             resolutions):
        # the latitude-angle frame read a clean (7, 0) on these coarse
        # meshes: matching inertia, no borderline value.  The frame of the
        # map reads mismatched counts there, so a fake _mode_spectrum
        # replays that reading; the six rotational Jacobi fields force
        # nullity >= 6, so the estimate must not certify itself
        def fake_spectrum(parts, l, coarse_lowest=None):
            return {0: (np.array([-5.0, 3.0]), (1, 1)),
                    1: (np.array([-4.0, -3.0, -2.0]), (3, 3))}.get(
                        l, (np.array([50.0]), (0, 0)))

        monkeypatch.setattr(stability, "_mode_spectrum", fake_spectrum)
        monkeypatch.setattr(stability, "RESOLUTIONS", resolutions)
        est = index_nullity_estimate(ModuliPoint(a, b))
        assert (est.index, est.nullity) == (7, 0)
        assert all(row["counts_match"] and not row["borderline"]
                   for row in est.per_mode.values())
        assert set(est.per_mode[0]["inertia"]) == {str(n) for n in resolutions}
        assert not est.converged

    def test_non_dyadic_ratio(self, monkeypatch):
        monkeypatch.setattr(stability, "RESOLUTIONS", (256, 768))
        est = index_nullity_estimate(ModuliPoint(0.3, 1.4))
        assert (est.index, est.nullity) == (3, 7)
        assert est.converged

    def test_rectangular_point(self):
        est = _estimate(0.0, 1.6)
        assert est.index <= 4
        assert est.nullity >= 6


class TestBoundaryBracket:
    """The index count against the constant-latitude boundary map at
    a^2 + b0^2 = 1 with latitude arccos(sqrt(3)/(2 b0)), whose Jacobi
    operator splits into the 3x3 blocks of jacobi_block.  Index is lower
    and index + nullity upper semicontinuous, so the (1,1,0) maps just
    inside the boundary have index >= 2 and index + nullity <= 11."""

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.45])
    def test_interior_count_within_boundary_bracket(self, a):
        b0 = math.sqrt(1.0 - a * a)
        phi0 = math.acos(math.sqrt(3.0) / (2.0 * b0))
        # only the blocks with |k|, |l| <= 1 are not positive definite
        vals = np.concatenate([
            np.linalg.eigvalsh(jacobi_block(ModuliPoint(a, b0), 1, 0, phi0,
                                            k, l).matrix)
            for k in range(-12, 13) for l in range(-6, 7)])
        assert np.sum(vals < -1e-9) == 2
        assert np.sum(np.abs(vals) <= 1e-9) == 9
        smallest = []
        # at eps = 3e-4 mode 0's lowest value, about -1.2, nears -delta
        for eps in (1e-2, 1e-3, 3e-4):
            est = index_nullity_estimate(ModuliPoint(a, b0 + eps))
            assert est.index >= 2
            assert est.index + est.nullity <= 11
            smallest.append(est.per_mode[0]["smallest"])
        # the third negative value, mode 0's lowest, goes to 0 like
        # sqrt(eps): the ratio over a decade of eps is near sqrt(10)
        assert 2.5 <= smallest[0] / smallest[1] <= 4.0
