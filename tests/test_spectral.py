"""Floquet engine tests: monodromy, counting, N(2) assembly, strict instance."""

import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from eqtorus import maps
from eqtorus.maps import PERIOD_TOL, ProfileSet, build_profiles
from eqtorus.spectral import (
    AT_THRESHOLD_TOL,
    CERTIFICATE_TOL,
    FOURIER_CUT,
    GAUSS,
    SLProblem,
    _hill_inverse,
    _magnus_step,
    _mesh,
    _period_sweep,
    _samples,
    _smooth5,
    assemble_N2,
    construct_strict_instance,
    count_below,
    monodromy,
    n2_lower_bound,
    sl_problem,
)
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    classify_params,
    solve_tau,
)


def _const_problem(c=1.0, b=1.0, l=0, phase=0.0):
    return SLProblem(l=l, coef=np.array([c]), b=b, bc_phase=phase)


def _cosine_sum(problem, y):
    """rho at y from the problem's own series c_0 + 2 sum c_k cos(2 pi k
    y/P), term by term."""
    k = np.arange(1, problem.coef.size)
    arg = (2.0 * math.pi / problem.period) * np.multiply.outer(
        np.asarray(y, dtype=float), k)
    return problem.coef[0] + 2.0 * np.cos(arg) @ problem.coef[1:]


def _dop853(problem, lam, rtol):
    """Fundamental solution matrix over [0, b] by adaptive Runge-Kutta: the
    integrator-independent oracle for monodromy and the period sweep, on
    the problem's series summed directly."""
    k2 = 4.0 * math.pi**2 * problem.l**2

    def rhs(y, state):
        g = k2 - lam * float(_cosine_sum(problem, y))
        h1, v1, h2, v2 = state
        return [v1, g * h1, v2, g * h2]

    sol = solve_ivp(rhs, (0.0, problem.b), [1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=rtol, atol=1e-13, dense_output=False)
    if not sol.success:  # pragma: no cover
        raise RuntimeError(f"monodromy integration failed: {sol.message}")
    h1, v1, h2, v2 = sol.y[:, -1]
    return np.array([[h1, h2], [v1, v2]])


def _sweep(problem, lam, n=None):
    """M_P at lam on n steps, by default monodromy's mesh at lambda = 2."""
    k2 = 4.0 * math.pi**2 * problem.l**2
    n = n or _mesh(problem, 2.0)
    return _period_sweep(_samples(problem, n), problem.period / n, k2, lam)


def _gauss_nodes(n, period=1.0):
    """The Gauss nodes of n steps over one period, a (3, n) array."""
    return (np.arange(n) + GAUSS[:, None]) * (period / n)


def _profiles(a, b, p, q, r):
    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    tau = solve_tau(point, params)
    return point, params, tau, build_profiles(tau, params, point)


@pytest.fixture(scope="module")
def instance():
    return construct_strict_instance()


class TestMonodromy:
    def test_constant_density_trace(self):
        pb = _const_problem(c=2.5, b=1.3)
        for lam in (0.4, 1.0, 1.9):
            M = monodromy(pb, lam)
            assert M[0, 0] + M[1, 1] == pytest.approx(
                2.0 * math.cos(1.3 * math.sqrt(2.5 * lam)), abs=1e-10)

    def test_zero_eigenvalue_constants(self):
        M = monodromy(_const_problem(), 0.0)
        assert M[0, 0] + M[1, 1] == pytest.approx(2.0, abs=1e-12)

    def test_unit_wronskian(self):
        point, params, tau, prof = _profiles(0.25, 2.1, 2, 3, 0)
        M = monodromy(sl_problem(prof, 0), 1.37)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-10)
        # growing mode: the 2x2 determinant itself is conditioned like
        # |M|^2 eps, so the bound scales with the entry size
        M1 = monodromy(sl_problem(prof, 1), 1.37)
        scale = max(1.0, float(np.max(np.abs(M1))) ** 2)
        assert np.linalg.det(M1) == pytest.approx(1.0, abs=1e-10 * scale)

    def test_floquet_multiplier_at_two(self):
        # sin(phi) e^{i alpha} solves the l=1 problem at lambda=2, so
        # e^{-2 pi i a} must be an eigenvalue of M(2)
        point, params, tau, prof = _profiles(0.3, 1.4, 1, 1, 0)
        M = monodromy(sl_problem(prof, 1), 2.0)
        mults = np.linalg.eigvals(M)
        want = np.exp(-2j * math.pi * point.a)
        assert min(abs(mults - want)) < 1e-7

    def test_matrix_is_full_sweeps(self):
        # monodromy's matrix is the period sweep's on its own mesh, to the
        # power q, bit for bit
        prof = _profiles(0.25, 2.1, 2, 3, 0)[3]
        for l in (0, 1):
            pb = sl_problem(prof, l)
            M_P = _sweep(pb, 2.0)
            np.testing.assert_array_equal(
                monodromy(pb, 2.0), np.linalg.matrix_power(M_P, pb.q))

    @pytest.mark.parametrize("case", [(0.25, 2.1, 2, 3, 0),
                                      (0.1, 3.1, 3, 4, 0)])
    def test_matrix_matches_adaptive(self, case):
        # every entry over [0, b] = q periods, against DOP853: pins the
        # row/column layout of the period matrix and its q-th power
        prof = _profiles(*case)[3]
        for l in (0, 1):
            pb = sl_problem(prof, l)
            for lam in (0.7, 1.37, 2.0):
                M = monodromy(pb, lam)
                want = _dop853(pb, lam, 1e-13)
                scale = max(1.0, float(np.linalg.norm(want)))
                np.testing.assert_allclose(M, want, rtol=0, atol=1e-9 * scale)

    def test_period_sweep_matches_adaptive(self):
        # one Magnus period against DOP853 over one period, and its q-th power
        # (tr M^q = 2 T_q(tr M / 2)) against DOP853 over the full [0, b]
        point, params, tau, prof = _profiles(0.25, 2.1, 2, 3, 0)
        lams = np.array([0.3, 0.9, 1.5, 1.999])
        for l in (0, 1):
            pb = sl_problem(prof, l)
            one = dataclasses.replace(pb, b=pb.period, q=1)
            fast = np.array([np.trace(_sweep(pb, lam)) for lam in lams])
            slow = [np.trace(_dop853(one, lam, 1e-11)) for lam in lams]
            np.testing.assert_allclose(fast, slow, atol=1e-9)
            full = 2.0 * np.polynomial.chebyshev.chebval(
                fast / 2.0, [0.0] * pb.q + [1.0])
            slow = [np.trace(_dop853(pb, lam, 1e-11)) for lam in lams]
            np.testing.assert_allclose(full, slow, atol=1e-8)


def _sequential_sweep(rho, h, k2, lam):
    """The period sweep step by step: the same Magnus step matrices, each
    put onto the product of those before it."""
    steps = _magnus_step(rho, h, k2, lam)
    M = steps[:, :, 0]
    for i in range(1, steps.shape[2]):
        M = steps[:, :, i] @ M
    return M


def _assert_matches_sequential(M, M_seq):
    # every entry to 1e-12 relative to the larger of 1 and its size
    scale = np.maximum(np.abs(M_seq), 1.0)
    assert np.max(np.abs(M - M_seq) / scale) <= 1e-12


def _assert_near_long_double(M, steps, h, k2, lam, rho):
    """M, a float64 product of the (2, 2, n) step matrices `steps` over
    P = n h = 1, against their sequential product in long double (a 64-bit
    mantissa on x86-64, so its own rounding is 2^-11 of the bound).

    A 2x2 product rounds each entry by at most gamma_2 ~ 2u of |A||B|
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.5).  Where
    the steps turn, in the frame diag(omega, 1) each is a rotation and
    |A||B| has entries at most 2, so each of the n - 1 products of either
    order adds at most 4u and none grows: the phase errs by at most 4u n.
    The entry -omega sin(phi) carries that times omega, at most the total
    step angle Theta = n h sqrt(max |k2 - lam rho|).  So every entry lies
    within 4u n max(1, Theta) of the product, relative to the larger of 1
    and its size; where the steps grow, the entries grow with the error."""
    assert np.finfo(np.longdouble).nmant >= 63
    ref = steps[:, :, 0].astype(np.longdouble)
    for i in range(1, steps.shape[2]):
        ref = steps[:, :, i].astype(np.longdouble) @ ref
    n = steps.shape[2]
    theta = n * h * math.sqrt(max(abs(k2 - lam * rho.min()),
                                  abs(k2 - lam * rho.max())))
    bound = 4.0 * (np.finfo(float).eps / 2.0) * n * max(1.0, theta)
    err = np.abs((M - ref).astype(float))
    assert np.max(err / np.maximum(np.abs(ref.astype(float)), 1.0)) <= bound


@st.composite
def _sweep_cases(draw):
    """(rho, h, k2, lams): a positive trig-polynomial rho over P = 1 at the
    Gauss nodes of n steps, and lambdas whose step angle
    h sqrt(max |k2 - lambda rho|) is at most 1."""
    n = draw(st.integers(16, 1200))
    k2 = draw(st.sampled_from([0.0, 4.0 * math.pi**2, 16.0 * math.pi**2]))
    c0 = draw(st.floats(0.5, 50.0))
    terms = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    cos_c = draw(st.lists(unit, min_size=terms, max_size=terms))
    sin_c = draw(st.lists(unit, min_size=terms, max_size=terms))
    # sum |coefficients| <= 0.9 c0 keeps rho >= 0.1 c0 > 0
    scale = 0.9 * c0 / (2 * terms)
    y = _gauss_nodes(n)
    rho = np.full_like(y, c0)
    for k, (ck, sk) in enumerate(zip(cos_c, sin_c), start=1):
        arg = 2.0 * math.pi * k * y
        rho += scale * (ck * np.cos(arg) + sk * np.sin(arg))
    # max |k2 - lambda rho| <= 0.999 n^2 (k2 < 16^2): step angle below 1
    lam_max = (0.999 * n * n + k2) / rho.max()
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=48))
    return rho, 1.0 / n, k2, lam_max * np.array(fracs)


class TestBlockedSweep:
    @pytest.mark.parametrize("n,nl", [(151, 1), (151, 2), (1337, 2),
                                      (1337, 63), (151, 4096)])
    @pytest.mark.parametrize("which", ["one", "two", "sqrt", "all"])
    def test_matches_sequential(self, n, nl, which):
        # the product tree over the first 1, 2, isqrt(n) or all n steps of
        # the mesh: no level, one level, and odd levels that carry a step up
        # (n = 151 and 1337 are odd, and isqrt(n) = 12 and 36 are not
        # powers of two); lambdas run from exponential growth (g > 0) to
        # ~20 oscillations
        steps = {"one": 1, "two": 2, "sqrt": math.isqrt(n), "all": n}[which]
        y = _gauss_nodes(n)[:, :steps]
        rho = (30.0 + 10.0 * np.sin(2.0 * math.pi * y)
               + 3.0 * np.cos(6.0 * math.pi * y))
        k2 = 4.0 * math.pi**2
        lams = np.sort(np.random.default_rng(nl).uniform(0.1, 150.0, nl))
        for lam in lams:
            M = _period_sweep(rho, 1.0 / n, k2, lam)
            M_seq = _sequential_sweep(rho, 1.0 / n, k2, lam)
            _assert_matches_sequential(M, M_seq)
            if steps == 1:  # one step is the sequential sweep, bit for bit
                np.testing.assert_array_equal(M, M_seq)

    def test_default_blocks(self):
        # monodromy's one-period matrix matches the sequential sweep over
        # the same samples
        pb = sl_problem(_profiles(0.25, 2.1, 2, 3, 0)[3], 1)
        one = dataclasses.replace(pb, b=pb.period, q=1)
        n = _mesh(pb, 2.0)
        M_seq = _sequential_sweep(_samples(pb, n), pb.period / n,
                                  4.0 * math.pi**2, 2.0)
        _assert_matches_sequential(monodromy(one, 2.0), M_seq)

    @settings(max_examples=100, deadline=None)
    @given(_sweep_cases())
    # a rotation through 41 turns at omega = 258: at lambda = 66 364.32
    # the two float64 orders differ by 5.9e-12 in an entry of size 0.55,
    # omega times their phase rounding
    @example((np.ones((3, 391)), 1.0 / 391, 0.0,
              np.array([66360.0, 66364.32])))
    def test_random_blocks_match_sequential(self, case):
        # the product tree of the step matrices and the step-by-step
        # sweep, each against the long-double product, for any resolving
        # mesh
        rho, h, k2, lams = case
        for lam in lams:
            steps = _magnus_step(rho, h, k2, lam)
            for M in (_period_sweep(rho, h, k2, lam),
                      _sequential_sweep(rho, h, k2, lam)):
                _assert_near_long_double(M, steps, h, k2, lam, rho)

    def test_rejects_unresolved_mesh(self):
        # step angle h sqrt(max |k2 - lambda rho|) = 1.1 from lambda, or
        # from k2 alone at lambda = 0; step angle 1 passes
        n = 100
        rho = np.ones((3, n))
        with pytest.raises(ValueError, match="step angle"):
            _period_sweep(rho, 1.0 / n, 0.0, 1.21 * n * n)
        with pytest.raises(ValueError, match="step angle"):
            _period_sweep(rho, 1.0 / n, 1.21 * n * n, 0.0)
        _period_sweep(rho, 1.0 / n, 0.0, 1.0 * n * n)


def _closed_form(g, b):
    """The fundamental matrix of h'' = g h over [0, b] for a constant g: a
    rotation where g < 0, a shear at g = 0, a boost where g > 0."""
    if g == 0.0:
        return np.array([[1.0, b], [0.0, 1.0]])
    if g < 0.0:
        w = math.sqrt(-g)
        return np.array([[math.cos(w * b), math.sin(w * b) / w],
                         [-w * math.sin(w * b), math.cos(w * b)]])
    k = math.sqrt(g)
    return np.array([[math.cosh(k * b), math.sinh(k * b) / k],
                     [k * math.sinh(k * b), math.cosh(k * b)]])


class TestMagnusExact:
    """The Magnus step is exact for constant coefficients: with rho constant
    the sweep is the closed-form rotation or boost, up to rounding."""

    @pytest.mark.parametrize("c,b,q", [(2.5, 1.3, 1), (7.0, 2.4, 3)])
    @pytest.mark.parametrize("l", [0, 1])
    def test_constant_density(self, c, b, q, l):
        # lambda below k2/c (a boost; at l = 0 a negative lambda) and above
        # it (a rotation), on monodromy's own meshes
        k2 = 4.0 * math.pi**2 * l * l
        pb = dataclasses.replace(_const_problem(c=c, b=b, l=l), q=q)
        for lam in (k2 / c - 1.5, k2 / c + 1.0, k2 / c + 7.3):
            want = _closed_form(k2 - lam * c, b)
            scale = max(1.0, float(np.max(np.abs(want))))
            err = np.max(np.abs(monodromy(pb, lam) - want))
            assert err <= 1e-13 * scale, (lam, err)

    @pytest.mark.parametrize("n,g", [(1, -0.8), (1, 0.0), (1, 0.3),
                                     (7, -30.0), (64, -30.0), (64, 12.0),
                                     (400, -30.0), (400, 0.0), (400, 12.0)])
    def test_step_counts(self, n, g):
        # one period P = 1 on n steps
        want = _closed_form(g, 1.0)
        M = _period_sweep(np.full((3, n), 1.3), 1.0 / n, 0.0, -g / 1.3)
        assert np.max(np.abs(M - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("l", [0, 1])
    def test_strict_instance_converged(self, instance, l):
        # the traces at lambda = 2 on monodromy's mesh and on twice its
        # steps agree to 1e-10
        point, params, cert = instance
        pb = sl_problem(build_profiles(cert["tau"], params, point), l)
        n = _mesh(pb, 2.0)
        traces = [np.trace(np.linalg.matrix_power(_sweep(pb, 2.0, k * n), pb.q))
                  for k in (1, 2)]
        assert abs(traces[0] - traces[1]) <= 1e-10

    def test_least_smooth_instance_converges(self):
        # (1,1,0) at (0, 2), l = 1, the least smooth rho of the criterion-4
        # set: monodromy's 800 steps sit 2.6e-10 from 1600, inside the 1e-9
        # of DOP853, and 1600 sit 4e-12 from 3200, the 64-fold cut of sixth
        # order
        pb = sl_problem(_profiles(0.0, 2.0, 1, 1, 0)[3], 1)
        n = _mesh(pb, 2.0)
        t1, t2, t4 = (np.trace(_sweep(pb, 2.0, k * n)) for k in (1, 2, 4))
        assert abs(t1 - t2) <= 5e-10
        assert abs(t2 - t4) <= 1e-10


def test_smooth5_is_next_fast_len():
    # _mesh's step count must be scipy.fft's real fast length exactly, or
    # a certificate would move
    import scipy.fft

    n = np.arange(1, 2**17 + 1)
    ours = [_smooth5(int(k)) for k in n]
    assert ours == [scipy.fft.next_fast_len(int(k), real=True) for k in n]


class TestCountBelow:
    def test_flat_density_no_low_modes(self):
        # eigenvalues 4 pi^2 k^2 all sit far above 2
        mc = count_below(_const_problem(c=1.0, b=1.0, l=0))
        assert mc.count == 0

    def test_flat_density_counts_scale(self):
        # with rho = c eigenvalues are 4 pi^2 k^2 / c: choose c so that
        # exactly k = 1 falls below the threshold (double: cos and sin)
        c = 4.0 * math.pi**2 / 1.21
        mc = count_below(_const_problem(c=c, b=1.0, l=0))
        assert mc.count == 2
        assert mc.eigenvalues[0] == pytest.approx(1.21, rel=1e-8)
        assert mc.eigenvalues[1] == pytest.approx(1.21, rel=1e-8)

    @pytest.mark.parametrize("c,expected", [
        (1.0, 0), (4.0 * math.pi**2 / 1.21, 2), (200.0, 6), (1000.0, 14)])
    def test_flat_density_truncation(self, c, expected):
        # rho = c has no Fourier coefficient but the mean: the Hill matrix
        # must still reach every n with (2 pi n)^2 < 2c, here |n| <= 3 for
        # c = 200 and |n| <= 7 for c = 1000, the constant not counted
        assert count_below(_const_problem(c=c, b=1.0, l=0)).count == expected

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.5, 1000.0), b=st.floats(0.5, 3.0),
           l=st.integers(0, 3),
           phase=st.one_of(st.just(0.0), st.just(math.pi),
                           st.floats(0.0, 2.0 * math.pi, exclude_max=True)))
    def test_flat_density_closed_form(self, c, b, l, phase):
        # rho = c: the eigenvalues are ((2 pi n - phase)/b)^2 + 4 pi^2 l^2,
        # divided by c; those at the threshold are not drawn
        n = np.arange(-int(math.sqrt(2.0 * c) * b) - 2,
                      int(math.sqrt(2.0 * c) * b) + 3)
        eigs = (((2.0 * math.pi * n - phase) / b) ** 2
                + 4.0 * math.pi**2 * l * l) / c
        assume(np.min(np.abs(eigs - 2.0)) > 1e-6)
        expected = int(np.sum(eigs < 2.0)) - (l == 0 and phase == 0.0)
        mc = count_below(_const_problem(c=c, b=b, l=l, phase=phase))
        assert mc.count == expected
        assert mc.at_threshold == []

    def test_one_one_zero_boundary_modes(self):
        _, _, _, prof = _profiles(0.3, 1.4, 1, 1, 0)
        mc0 = count_below(sl_problem(prof, 0))
        assert mc0.count == 0  # lambda_1(0) = lambda_2(0) = 2 exactly
        mc1 = count_below(sl_problem(prof, 1))
        assert mc1.count == 0  # ceil(2a-1) = 0 for a in (0, 1/2)

    def test_nonlimit_reference_counts(self):
        _, _, _, prof = _profiles(0.25, 2.1, 2, 3, 0)
        assert count_below(sl_problem(prof, 0)).count == 2
        assert count_below(sl_problem(prof, 1)).count == 0

    def test_tangency_double_in_antiperiodic_mode(self):
        # the second-limit (2,3,1) metric at a=1/2: l=1 is antiperiodic with
        # a closed gap, lambda_0(1) = lambda_1(1) counted twice
        _, _, _, prof = _profiles(0.5, 2.0, 2, 3, 1)
        mc = count_below(sl_problem(prof, 1))
        assert mc.count == 2
        assert mc.eigenvalues[0] == pytest.approx(mc.eigenvalues[1], abs=1e-5)

    def test_eigenvalues_match_adaptive_monodromy(self):
        _, _, _, prof = _profiles(0.25, 2.1, 2, 3, 0)
        pb = sl_problem(prof, 0)
        mc = count_below(pb)
        for lam in mc.eigenvalues:
            M = _dop853(pb, lam, 1e-11)
            assert np.trace(M) == pytest.approx(pb.trace_target, abs=1e-6)

    def test_map_components_at_threshold(self):
        # the (1,1,0) map components are eigenfunctions with eigenvalue
        # exactly 2: two at l = 0 (periodic) and one at l = 1
        _, _, _, prof = _profiles(0.3, 1.4, 1, 1, 0)
        mc0 = count_below(sl_problem(prof, 0))
        mc1 = count_below(sl_problem(prof, 1))
        assert len(mc0.at_threshold) == 2
        assert len(mc1.at_threshold) == 1
        for lam in mc0.at_threshold + mc1.at_threshold:
            assert lam == pytest.approx(2.0, abs=1e-7)

    def test_rejects_wrong_period_of_map(self):
        # rho's period 2K/w is b/q; a map claimed with twice its q reads
        # a defect of 1/2, and its problems are refused
        point, params, tau, _ = _profiles(0.25, 2.1, 2, 3, 0)
        wrong = build_profiles(tau, dataclasses.replace(params, q=6), point)
        with pytest.raises(ValueError, match="period .* defect 0.5"):
            sl_problem(wrong, 0)


MIXED_CASES = [
    (0.25, 2.1, 2, 3, 0), (0.5, 2.0, 2, 3, 1), (0.25, 1.25, 1, 2, 0),
    (0.0, 1.3, 1, 2, 1), (0.0, 2.0, 1, 1, 0), (0.3, 2.2, 2, 2, 0),
    (0.1, 3.1, 3, 4, 0), (0.4, 2.0, 2, 4, 1), (0.2, 2.6, 2, 3, -1),
    (0.3, 1.4, 1, 1, 0),
]


def _hill_oracle(problem, rho, threshold=2.0, nmax=64):
    """Eigenvalues below and at the threshold, at a fixed truncation.

    Fourier (Hill-matrix) Galerkin over one period P = b/q: for each j the
    multiplier e^{-i phi_j} is carried by e^{i kappa_j y}, kappa_j =
    -phi_j/P, so A = diag((kappa_j + 2 pi n/P)^2 + 4 pi^2 l^2) and B is the
    Hermitian Toeplitz matrix of the Fourier coefficients of rho, sampled
    (ProfileSet.rho, not the problem's series), |n| <= nmax.
    """
    P = problem.period
    samples = 8 * nmax
    coef = np.fft.fft(rho(np.arange(samples) * P / samples)) / samples
    n = np.arange(-nmax, nmax + 1)
    B = coef[(n[:, None] - n[None, :]) % samples]
    eigs = []
    for j in range(problem.q):
        kappa = -(problem.bc_phase + 2.0 * math.pi * j) / problem.q / P
        A = np.diag((kappa + 2.0 * math.pi * n / P) ** 2
                    + 4.0 * math.pi**2 * problem.l**2)
        vals = scipy.linalg.eigh(A, B, eigvals_only=True)
        eigs.extend(vals[vals < threshold + AT_THRESHOLD_TOL])
    eigs = np.sort(eigs)[1 if problem.l == 0 else 0:]  # drop the constants
    split = int(np.sum(eigs < threshold - AT_THRESHOLD_TOL))
    return eigs[:split], eigs[split:]


def _assert_matches_oracle(problem, rho):
    # count_below's series and truncation against rho's sampled
    # coefficients and the fixed |n| <= 64
    mc = count_below(problem)
    below, at = _hill_oracle(problem, rho)
    assert mc.count == len(mc.eigenvalues) == len(below)
    assert len(mc.at_threshold) == len(at)
    np.testing.assert_allclose(mc.eigenvalues, below, rtol=0, atol=1e-10)
    np.testing.assert_allclose(mc.at_threshold, at, rtol=0, atol=1e-10)


class TestHillOracle:
    @pytest.mark.parametrize("case", MIXED_CASES)
    def test_mixed_cases(self, case):
        _, _, tau, prof = _profiles(*case)
        l_max = math.ceil(math.sqrt(tau.tau2 + tau.tau3 - tau.tau1))
        for l in range(l_max + 1):
            _assert_matches_oracle(sl_problem(prof, l), prof.rho)

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_strict_instance_modes(self, instance, l):
        point, params, cert = instance
        prof = build_profiles(cert["tau"], params, point)
        _assert_matches_oracle(sl_problem(prof, l), prof.rho)


def _assert_samples_match(problem):
    # rho at the Gauss nodes of monodromy's mode-0 mesh at lambda = 2, by
    # the irfft of _samples, against the series summed directly
    n = _mesh(problem, 2.0)
    want = _cosine_sum(problem, _gauss_nodes(n, problem.period))
    got = _samples(problem, n)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@st.composite
def _trig_problems(draw):
    """An SLProblem whose rho is a positive cosine polynomial of degree
    <= 12 with period b/q: a map's rho is even."""
    b = draw(st.floats(0.5, 3.0))
    q = draw(st.integers(1, 4))
    c0 = draw(st.floats(0.5, 200.0))
    terms = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0)
    cos_c = np.array(draw(st.lists(unit, min_size=terms, max_size=terms)))
    # sum |2 c_k| <= 0.9 c0 keeps rho >= 0.1 c0 > 0
    coef = np.concatenate([[c0], (0.45 * c0 / terms) * cos_c])
    return SLProblem(l=0, coef=coef, b=b, bc_phase=0.0, q=q)


class TestCoefficientMesh:
    """monodromy's samples of rho come from its series by one irfft; they
    must equal the series summed term by term, and a map's series must
    equal rho."""

    @pytest.mark.parametrize("case", MIXED_CASES)
    def test_mixed_cases(self, case):
        _assert_samples_match(sl_problem(_profiles(*case)[3], 0))

    def test_strict_instance(self, instance):
        point, params, cert = instance
        prof = build_profiles(cert["tau"], params, point)
        _assert_samples_match(sl_problem(prof, 0))

    @settings(max_examples=100, deadline=None)
    @given(_trig_problems())
    def test_trig_polynomials(self, problem):
        _assert_samples_match(problem)
        # the Hill basis |n| <= N reaches every term at or above the cut
        last = np.flatnonzero(np.abs(problem.coef) >= FOURIER_CUT * problem.coef[0])
        assert _hill_inverse(problem).shape[0] // 2 > last[-1]

    @pytest.mark.parametrize("case", [c for c in MIXED_CASES
                                      if c[:2] != (0.0, 2.0)])
    def test_series_matches_rho(self, case):
        # where m1 >= 1e-3 (all the mixed cases but (0, 2), m1 = 9.9e-5)
        _assert_series_matches_rho(_profiles(*case)[3])

    def test_strict_series_matches_rho(self, instance):
        point, params, cert = instance
        _assert_series_matches_rho(build_profiles(cert["tau"], params, point))


# ten (p, q, r) families with feasible points below b = 2.8
FAMILIES = [(1, 1, 0), (1, 2, 0), (1, 2, 1), (2, 2, 1), (2, 3, 0),
            (2, 3, 1), (2, 4, 0), (2, 4, 1), (3, 4, 1), (3, 5, 2)]


@st.composite
def _feasible_maps(draw):
    """The map at a feasible (a, b, p, q, r), exact a (0 and 1/2 among the
    draws), b at most 2.8, where the float tau solve is sound."""
    p, q, r = draw(st.sampled_from(FAMILIES))
    a = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(1, 2)]),
                       st.fractions(Fraction(-1, 2), Fraction(1, 2),
                                    max_denominator=1000)))
    assume(2 * abs(r + a) <= q)
    b_min = math.sqrt(max(p * p - float(r + a) ** 2, 0.0)) + 0.01
    assume(b_min < 2.8)
    point = ModuliPoint(a, draw(st.floats(b_min, 2.8)))
    try:
        params = classify_params(point, p, q, r)
    except InfeasibleParametersError:
        assume(False)
    return build_profiles(solve_tau(point, params), params, point)


@settings(max_examples=100, deadline=None)
@given(_feasible_maps())
def test_rho_max_read_off_series(prof):
    # a map's c_k are positive, so c_0 + 2 sum |c_k| is rho(0), the maximum
    # 2 pi^2 (tau2 + tau3 - tau1).  Both sides are sums of positive terms,
    # each made in a handful of roundings from the same taus and K, E: 16
    # ulps (over 14 827 draws the largest gap read 1.1e-15, 10 ulps)
    tau = prof.tau
    want = 2.0 * math.pi**2 * (tau.tau2 + tau.tau3 - tau.tau1)
    got = sl_problem(prof, 0).rho_max
    assert abs(got - want) <= 16 * (np.finfo(float).eps / 2.0) * want


def _assert_series_matches_rho(prof):
    # the series summed directly against ProfileSet.rho, to 1e-13 of the
    # mean, over a period and at points past it
    pb = sl_problem(prof, 0)
    y = np.linspace(-pb.b, 2.0 * pb.b, 997)
    err = np.max(np.abs(_cosine_sum(pb, y) - prof.rho(y)))
    assert err <= 1e-13 * pb.coef[0]


def _assert_located(problem):
    # each eigenvalue and each value at the threshold solves the Floquet
    # condition tr M_P(e) = 2 cos(phi_j) of some phase j, by the Magnus sweep
    # of monodromy over one period; growing solutions scale its error
    mc = count_below(problem)
    one = dataclasses.replace(problem, b=problem.period, q=1)
    targets = 2.0 * np.cos((problem.bc_phase
                            + 2.0 * math.pi * np.arange(problem.q)) / problem.q)
    for e in mc.eigenvalues + mc.at_threshold:
        M = monodromy(one, e)
        residual = np.min(np.abs(np.trace(M) - targets))
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(M)), (
            problem.l, e, residual)


class TestEigenvalueLocations:
    @pytest.mark.parametrize("case", MIXED_CASES)
    def test_mixed_cases(self, case):
        _, _, tau, prof = _profiles(*case)
        l_max = math.ceil(math.sqrt(tau.tau2 + tau.tau3 - tau.tau1))
        for l in range(l_max + 1):
            _assert_located(sl_problem(prof, l))

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_strict_instance_modes(self, instance, l):
        point, params, cert = instance
        prof = build_profiles(cert["tau"], params, point)
        _assert_located(sl_problem(prof, l))


def _lame_theta(E, m):
    """Quasi-momentum over one period 2K of the n = 1 Lame operator
    L = -d^2/du^2 + 2m sn^2 u, whose spectrum is [m, 1] u [1 + m, oo):
    theta = K int_m^E (lam* - s) ds / sqrt|R(s)| on the first band, pi on
    the gap and pi + K int_{1+m}^E (s - lam*) ds / sqrt|R(s)| above it, with
    R(s) = (s - m)(s - 1)(s - 1 - m) and lam* = m + E(m)/K(m).  The
    substitutions s = m + (1 - m) sin^2 t and s = 1 + m + t^2 take the roots
    of R out of the integrands."""
    m, E = mp.mpf(m), mp.mpf(E)
    K = mp.ellipk(m)
    lam = m + mp.ellipe(m) / K
    if E <= 1:
        def f(t):
            s = m + (1 - m) * mp.sin(t) ** 2
            return (lam - s) / mp.sqrt(1 + m - s)
        return float(2 * K * mp.quad(f, [0, mp.asin(mp.sqrt((E - m) / (1 - m)))]))
    if E <= 1 + m:
        return math.pi

    def g(t):
        s = 1 + m + t * t
        return (s - lam) / mp.sqrt((s - m) * (s - 1))
    # E - 1 - m may round below 0 where E > 1 + m rounded
    return float(mp.pi + 2 * K * mp.quad(g, [0, mp.sqrt(max(E - 1 - m, 0))]))


def _lame_count(tau, problem, tol=1e-9):
    """(count, at-threshold multiplicity) of mode l in closed form.

    With u = w y, rho = 2 pi^2 (tau2 + tau3 - tau1 - 2 D sn^2 u) and the
    min-max count of -h'' + 4 pi^2 l^2 h - 2 rho h, the eigenvalues of mode
    l below 2 are the eigenvalues of L below H_l = (tau2 + tau3 - tau1 -
    l^2)/(tau3 - tau1), the constant at l = 0 included.  Phase phi_j,
    reduced to [0, pi], has its eigenvalues at theta = phi_j on the first
    band and theta = 2 pi k -+ phi_j, k >= 1, above the gap.  The map
    components sit exactly on the band edges (dn at m, cn at 1, sn at
    1 + m), so H_l is placed against the edges before theta is read.
    """
    t1, t2, t3 = tau.taus
    m = (t2 - t1) / (t3 - t1)
    H = (t2 + t3 - t1 - problem.l**2) / (t3 - t1)
    th = _lame_theta(H, m) if m + tol < H < 1 - tol or H > 1 + m + tol else None
    count = at = 0
    for j in range(problem.q):
        phi = (problem.bc_phase + 2.0 * math.pi * j) / problem.q % (2.0 * math.pi)
        phi = min(phi, 2.0 * math.pi - phi)
        if H < m - tol:
            continue
        if H <= m + tol:                    # dn, periodic
            at += phi <= tol
        elif H < 1 - tol:                   # first band
            count += phi < th - tol
            at += abs(phi - th) <= tol
        elif H <= 1 + tol:                  # cn, antiperiodic
            count += phi < math.pi - tol
            at += phi >= math.pi - tol
        elif H <= 1 + m + tol:              # the gap, and sn at its top
            count += 1
            at += H >= 1 + m - tol and phi >= math.pi - tol
        else:                               # above the gap
            count += 1
            k = 1
            while 2.0 * math.pi * k - phi <= th + tol:
                for v in (2.0 * math.pi * k - phi, 2.0 * math.pi * k + phi):
                    count += v < th - tol
                    at += abs(v - th) <= tol
                k += 1
    return count - (problem.l == 0), at


SPECTRAL_110_POINTS = [
    (0.0, 1.2), (0.0, 2.0), (0.1, 1.1), (0.15, 1.6), (0.25, 1.3),
    (0.3, 1.4), (0.35, 1.9), (0.4, 1.05), (0.5, 1.2), (0.5, 2.0),
]
# the 20 instances of acceptance criterion 4: the (1,1,0) points and the
# mixed sample, two of which repeat among the points
CRITERION_4 = list(dict.fromkeys(
    [(a, b, 1, 1, 0) for a, b in SPECTRAL_110_POINTS] + MIXED_CASES))


def _assert_certificates_match_adaptive(prof):
    # tr M_b(2), which the certificates compare with 2 cos(2 pi l a), to
    # 1e-9 of DOP853 at rtol 1e-13: two orders inside the 1e-7 gate
    for l in (0, 1):
        pb = sl_problem(prof, l)
        got = np.trace(monodromy(pb, 2.0))
        want = np.trace(_dop853(pb, 2.0, 1e-13))
        assert abs(got - want) <= 1e-9, (l, got - want)


class TestLameCount:
    """count_below against the closed-form Lame count, an exact count that
    shares neither the Hill matrix nor the Magnus sweep."""

    def test_theta_at_band_edges(self):
        # theta is 0 at dn's edge m and pi at cn's edge 1 and sn's 1 + m;
        # it has a square-root edge, so 1 + m rounded reads ~1e-8 off
        for m in (0.1, 0.5, 0.9):
            assert _lame_theta(m, m) == 0.0
            assert _lame_theta(1.0, m) == pytest.approx(math.pi, abs=1e-12)
            assert _lame_theta(1.0 + m, m) == pytest.approx(math.pi, abs=1e-7)

    @pytest.mark.parametrize("case", CRITERION_4)
    def test_criterion_4_instances(self, case):
        _, _, tau, prof = _profiles(*case)
        l_max = math.ceil(math.sqrt(tau.tau2 + tau.tau3 - tau.tau1))
        for l in range(l_max + 1):
            pb = sl_problem(prof, l)
            mc = count_below(pb)
            assert (mc.count, len(mc.at_threshold)) == _lame_count(tau, pb), l

    def test_strict_instance(self, instance):
        point, params, cert = instance
        prof = build_profiles(cert["tau"], params, point)
        for l in range(4):
            pb = sl_problem(prof, l)
            mc = count_below(pb)
            assert (mc.count, len(mc.at_threshold)) == _lame_count(
                cert["tau"], pb), l


class TestCertificates:
    @pytest.mark.parametrize("case", CRITERION_4)
    def test_criterion_4_instances(self, case):
        _assert_certificates_match_adaptive(_profiles(*case)[3])

    def test_strict_instance(self, instance):
        point, params, cert = instance
        _assert_certificates_match_adaptive(
            build_profiles(cert["tau"], params, point))


class TestAssembleN2:
    @pytest.mark.parametrize("case,expected", [
        ((0.3, 1.4, 1, 1, 0), 1),
        ((0.0, 2.0, 1, 1, 0), 1),
        ((0.25, 2.1, 2, 3, 0), 3),
        ((0.5, 2.0, 2, 3, 1), 7),
        ((0.25, 1.25, 1, 2, 0), 2),
        ((0.0, 1.3, 1, 2, 1), 4),
    ])
    def test_known_counts(self, case, expected):
        point, params, tau, prof = _profiles(*case)
        rep = assemble_N2(tau, params, point)
        assert rep.n2 == expected
        assert rep.n2 == rep.bound_rhs
        assert rep.equality

    def test_flags_certificate_above_bound(self):
        # (1,1,0) at (0.3, 4.4), where rho's float m leaves the l = 1
        # certificate at 9.1e-4 (ROADMAP item 2): one warning, in mode 1,
        # ending in the value
        point, params, tau, _ = _profiles(0.3, 4.4, 1, 1, 0)
        rep = assemble_N2(tau, params, point)
        cert = rep.trace_certificates[1]
        assert cert > 1e-4 and rep.trace_certificates[0] <= CERTIFICATE_TOL
        assert rep.warnings == [f"l = 1: trace residual {cert:.2e}"]
        assert [mc.warnings for mc in rep.counts_below_2[:2]] == [
            [], rep.warnings]
        assert float(rep.warnings[0].rsplit(" ", 1)[1]) == pytest.approx(
            cert, rel=1e-2)

    @pytest.mark.parametrize("case", CRITERION_4)
    def test_criterion_4_instances_not_flagged(self, case):
        point, params, tau, _ = _profiles(*case)
        assert assemble_N2(tau, params, point).warnings == []

    def test_bound_formula(self):
        pt_a = ModuliPoint(0.25, 2.1)
        assert n2_lower_bound(classify_params(pt_a, 2, 3, 0), pt_a) == 3
        pt_b = ModuliPoint(0.5, 2.0)
        assert n2_lower_bound(classify_params(pt_b, 2, 3, 1), pt_b) == 7
        pt_c = ModuliPoint(0.0, 2.0)
        assert n2_lower_bound(classify_params(pt_c, 1, 1, 0), pt_c) == 1

    @pytest.mark.parametrize("case", [(0.0, 2.0, 1, 1, 0),
                                      (0.25, 2.1, 2, 3, 0)])
    def test_samples_rho_once(self, monkeypatch, case):
        # one cosine series serves both certificates and every count: it
        # is made once, and rho itself is evaluated at no point; each
        # count equals the count of a fresh problem with a series of its
        # own
        point, params, tau, _ = _profiles(*case)
        nodes, series = [], []
        real_rho, real_carlson = ProfileSet.rho, maps._carlson

        def spy(self, y):
            nodes.append(np.size(y))
            return real_rho(self, y)

        def carlson(m1):  # one call per series
            series.append(m1)
            return real_carlson(m1)

        monkeypatch.setattr(ProfileSet, "rho", spy)
        monkeypatch.setattr(maps, "_carlson", carlson)
        rep = assemble_N2(tau, params, point)
        assert nodes == []
        assert len(series) == 1
        for mc in rep.counts_below_2:
            alone = count_below(sl_problem(build_profiles(tau, params, point),
                                           mc.l))
            assert (alone.count, alone.eigenvalues, alone.at_threshold) == (
                mc.count, mc.eigenvalues, mc.at_threshold)

    def test_inverts_hill_matrix_once(self, monkeypatch):
        # every mode of a map shares rho's period, so one inverse of B
        # serves all the counts of an op
        point, params, tau, _ = _profiles(0.25, 2.1, 2, 3, 0)
        calls = []
        real_inv = np.linalg.inv

        def inv(B):
            calls.append(B.shape)
            return real_inv(B)

        monkeypatch.setattr(np.linalg, "inv", inv)
        rep = assemble_N2(tau, params, point)
        assert len(rep.counts_below_2) > 1
        assert len(calls) == 1

    def test_one_irfft_per_certificate_mesh(self, monkeypatch):
        # at (0, 2) the l = 0 and l = 1 certificates step on one mesh, so
        # they share one irfft of rho's coefficients; each certificate
        # equals that of a fresh problem that makes its own samples
        point, params, tau, _ = _profiles(0.0, 2.0, 1, 1, 0)
        sizes, real = [], np.fft.irfft

        def spy(coef, n, *args, **kwargs):
            sizes.append(n)
            return real(coef, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        rep = assemble_N2(tau, params, point)
        assert len(sizes) == 1
        for l in (0, 1):
            alone = sl_problem(build_profiles(tau, params, point), l)
            assert rep.trace_certificates[l] == abs(
                np.trace(monodromy(alone, 2.0)) - alone.trace_target)

    def test_rejects_unclosed_profile(self):
        # tau3 off by 1e-6 breaks the period b/q of rho (a defect of
        # 3.6e-7, over PERIOD_TOL): the one period check of the op must
        # still catch it
        point, params, tau, _ = _profiles(0.25, 2.1, 2, 3, 0)
        bad = dataclasses.replace(tau, tau3=tau.tau3 + 1e-6)
        with pytest.raises(ValueError, match="period") as err:
            assemble_N2(bad, params, point)
        defect = float(str(err.value).split("defect ")[1].split(";")[0])
        assert PERIOD_TOL < defect < 1e-6

    def test_certificates_at_two(self):
        point, params, tau, prof = _profiles(0.25, 2.1, 2, 3, 0)
        rep = assemble_N2(tau, params, point)
        assert rep.trace_certificates[0] <= 1e-7
        assert rep.trace_certificates[1] <= 1e-7

    def test_sufficient_conditions_reported(self):
        point, params, tau, _ = _profiles(0.25, 2.1, 2, 3, 0)
        rep = assemble_N2(tau, params, point)
        assert rep.ratio_condition_met   # p/q = 2/3 > 1/sqrt(3)
        assert rep.sufficient_condition_met
        assert rep.tau_sum <= 4.0

    def test_mode_zero_ground_state_increases_with_l(self):
        # lambda_0(l) is increasing in l: probe through the trace at a low
        # lambda where mode 0 already oscillates but higher modes do not
        _, _, _, prof = _profiles(0.25, 2.1, 2, 3, 0)
        first = []
        for l in (1, 2, 3):
            mc = count_below(sl_problem(prof, l))
            first.append(mc.eigenvalues[0] if mc.eigenvalues else math.inf)
        assert first[0] <= first[1] <= first[2]


class TestBoundaryConditions:
    def test_classification_from_exact_a(self):
        _, _, _, prof = _profiles(0.5, 2.0, 2, 3, 1)
        # periodic and antiperiodic phases come out exact, from exact a
        assert sl_problem(prof, 0).bc_phase == 0.0
        assert sl_problem(prof, 1).bc_phase == math.pi
        assert sl_problem(prof, 1).trace_target == -2.0
        _, _, _, prof_q = _profiles(0.25, 2.1, 2, 3, 0)
        assert sl_problem(prof_q, 1).bc_phase not in (0.0, math.pi)
        assert sl_problem(prof_q, 4).bc_phase == 0.0
        assert sl_problem(prof_q, 2).bc_phase == math.pi

    def test_phase(self):
        _, _, _, prof = _profiles(0.25, 2.1, 2, 3, 0)
        assert sl_problem(prof, 1).bc_phase == pytest.approx(math.pi / 2)
        assert sl_problem(prof, 1).trace_target == pytest.approx(0.0, abs=1e-15)


class TestStrictInstance:
    def test_seed_value(self, instance):
        _, _, cert = instance
        assert cert["seed_T"] > 4.0
        assert cert["seed_T"] == pytest.approx(27.9 / 6.9, rel=1e-12)

    def test_emitted_geometry(self, instance):
        point, params, cert = instance
        assert point.b > 1.0
        assert point.b > cert["b_floor"]
        assert 0.0 <= point.a <= 0.5
        assert cert["T0"] > 4.0 * (point.a**2 / point.b**2 + 1.0)

    def test_mode_two_eigenvalue_below_two(self, instance):
        _, _, cert = instance
        assert cert["mode2_count"] >= 1
        assert cert["lambda0_2"] < 2.0 - 1e-7
        assert cert["lambda0_2"] < cert["plane_wave_bound"]

    def test_strict_inequality(self, instance):
        point, params, cert = instance
        rep = assemble_N2(cert["tau"], params, point)
        assert rep.n2 > rep.bound_rhs
        assert not rep.equality
        assert (rep.n2, rep.bound_rhs) == (191, 147)
        assert [mc.count for mc in rep.counts_below_2] == [50, 48, 22, 0]
        # mode 0 carries its full unconditional complement 2p - 2
        assert rep.counts_below_2[0].count == 2 * params.p - 2
        # generic-phase modes have simple, well-separated eigenvalues
        for mc in rep.counts_below_2:
            if mc.l == 0:
                continue
            gaps = np.diff(mc.eigenvalues)
            assert gaps.size == 0 or float(np.min(gaps)) > 1e-6
        assert rep.counts_below_2[2].count == cert["mode2_count"]
        assert rep.warnings == []

    def test_eigenvalues_certified_by_adaptive_monodromy(self, instance):
        # the DOP853 monodromy over the whole [0, b] = q periods confirms
        # every located eigenvalue of the three contributing modes; rtol
        # 1e-9 keeps its own error below 1e-7 at a third less run time
        point, params, cert = instance
        prof = build_profiles(cert["tau"], params, point)
        for l in (0, 1, 2):
            pb = sl_problem(prof, l)
            for lam in np.unique(count_below(pb).eigenvalues):
                M = _dop853(pb, lam, 1e-9)
                residual = abs(np.trace(M) - pb.trace_target)
                assert residual <= 1e-6, (l, lam, residual)
