"""Tests for the tau solve, with raw-quadrature oracles throughout."""

import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from eqtorus import tau_solver
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    Regime,
    ResolutionLimitError,
    _phi_theta,
    circle_gap,
    classify_params,
    integral_residuals,
    lattice_integrals,
    phi_fn,
    psi_fn,
    solve_n,
    solve_tau,
    solve_taus,
    third_limit_asymptote,
)

# the three reference parameter sets used everywhere below
NONLIMIT = (ModuliPoint(0.25, 2.1), (2, 3, 0))
FIRST = (ModuliPoint(0.25, 1.25), (1, 2, 0))
SECOND = (ModuliPoint(0.5, 2.0), (2, 3, 1))
# points with an endpoint layer that an adaptive quadrature of the
# s-integrand misses: the (1,1,0) grid towards the end of the Psi table,
# where 1 - tau2 falls to 1e-11 (gap2 = 0 at a = 1/2, gap3 = 0 at a = 0), an
# alpha root 6.7e-12 from n1 = 1, and the hypothesis draw of
# test_random_feasible_residuals
LAYERED = ([(ModuliPoint(a, b), (1, 1, 0))
            for a in (0.0, 0.3, 0.5) for b in (3.0, 4.0, 4.4)]
           + [(ModuliPoint(0.49999, 1.4), (1, 1, 0)),
              (ModuliPoint(0.001953125, 3.749999364217055), (3, 1, 0))])


def solve(point, pqr):
    params = classify_params(point, *pqr)
    return params, solve_tau(point, params)


def raw_integral_two(tau1, tau2, tau3):
    """Quadrature of the weighted integral behind the p/q condition, via the
    sin^2 substitution that removes the endpoint square roots."""
    dt = tau2 - tau1
    w = math.sqrt(tau1 * tau2 * tau3)

    def g(s):
        t = tau1 + dt * math.sin(s) ** 2
        return 2.0 * w / (t * math.sqrt(tau3 - t))

    val, _ = quad(g, 0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return val


class TestModuliPoint:
    def test_a_class_from_exact_input(self):
        assert ModuliPoint(0, 1.5).a_exact == 0
        assert ModuliPoint(0.5, 1.5).a_exact == Fraction(1, 2)
        assert ModuliPoint("1/2", 1.5).a_exact == Fraction(1, 2)

    def test_string_rational(self):
        pt = ModuliPoint("1/4", 2.1)
        assert pt.a == 0.25
        assert pt.a_exact == Fraction(1, 4)

    def test_a_exact_read_off_a(self):
        # a_exact is derived from a, never passed
        assert ModuliPoint(Fraction(1, 3), 1.5).a_exact == Fraction(1, 3)
        with pytest.raises(TypeError):
            ModuliPoint(0.25, 1.5, Fraction(1, 4))
        with pytest.raises(TypeError):
            ModuliPoint(0.25, 1.5, a_exact=Fraction(1, 4))

    def test_b_positive(self):
        with pytest.raises(ValueError):
            ModuliPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            ModuliPoint(0.0, -1.0)


class TestClassify:
    def test_regimes(self):
        assert classify_params(*NONLIMIT[:1], 2, 3, 0).regime is Regime.NONLIMIT
        assert classify_params(FIRST[0], 1, 2, 0).regime is Regime.FIRST_LIMIT
        assert classify_params(SECOND[0], 2, 3, 1).regime is Regime.SECOND_LIMIT
        assert classify_params(ModuliPoint(0, 1.3), 1, 2, 1).regime is Regime.HYBRID_LIMIT

    def test_circle_family(self):
        # (r+a)^2 + b^2 = p^2 on the boundary: (1-0.6)^2 + 0.84 = 1
        pt = ModuliPoint(-0.6, math.sqrt(0.84))
        assert classify_params(pt, 1, 2, 1).regime is Regime.CIRCLE_FAMILY

    @pytest.mark.parametrize("eps,on_boundary", [(5e-10, True), (5e-9, False)])
    def test_circle_boundary_decided_once(self, eps, on_boundary):
        # the regime, the limiting data, the circle map and the Jacobi blocks
        # all accept exactly the points within CIRCLE_TOL of the boundary
        from eqtorus.maps import CircleMap
        from eqtorus.stability import jacobi_block

        pt = ModuliPoint(0, math.sqrt(1.0 + eps))
        assert circle_gap(pt, 1, 0) == (pytest.approx(eps, rel=1e-6), on_boundary)
        regime = classify_params(pt, 1, 2, 0).regime
        assert (regime is Regime.CIRCLE_FAMILY) == on_boundary
        for build in (lambda: third_limit_asymptote(pt, 1, 2, 0),
                      lambda: CircleMap(pt, 1, 0, 0.5),
                      lambda: jacobi_block(pt, 1, 0, 0.5, 1, 0)):
            if on_boundary:
                build()
            else:
                with pytest.raises(InfeasibleParametersError):
                    build()

    def test_violations_named(self):
        with pytest.raises(InfeasibleParametersError, match="p/q"):
            classify_params(ModuliPoint(0, 2.0), 1, 3, 0)
        with pytest.raises(InfeasibleParametersError, match=r"\|r\+a\|/q"):
            classify_params(ModuliPoint(0.25, 2.0), 2, 2, 1)
        with pytest.raises(InfeasibleParametersError, match=r"b\^2"):
            classify_params(ModuliPoint(0, 0.5), 1, 1, 0)


class TestPhi:
    def test_vanishes_at_n_equals_m(self):
        assert phi_fn(0.3, 0.3) == 0.0
        assert phi_fn(0.3 + 1e-9, 0.3) < 1e-4

    def test_blows_up_at_zero_minus(self):
        assert phi_fn(-1e-8, 0.4) > 100.0

    def test_deep_negative_limit(self):
        assert phi_fn(-1e6, 0.4) == pytest.approx(math.pi / 2, rel=2e-3)

    def test_near_one_limit(self):
        assert phi_fn(1.0 - 1e-13, 0.4) == pytest.approx(math.pi / 2, rel=1e-6)

    def test_sentinels(self):
        assert phi_fn(-math.inf, 0.5) == math.pi / 2
        assert phi_fn(1.0, 0.5) == math.pi / 2

    def test_excluded_band(self):
        with pytest.raises(ValueError):
            phi_fn(0.1, 0.3)
        with pytest.raises(ValueError):
            phi_fn(0.0, 0.3)

    @pytest.mark.parametrize("m", [0.2, 0.6])
    def test_monotone_in_n(self, m):
        neg = [phi_fn(n, m) for n in (-100.0, -5.0, -0.5, -0.01)]
        assert all(x < y for x, y in zip(neg, neg[1:]))
        pos = [phi_fn(m + t * (1 - m), m) for t in (0.1, 0.4, 0.7, 0.999)]
        assert all(x < y for x, y in zip(pos, pos[1:]))


class TestSolveN:
    def test_theta_sentinel(self):
        assert solve_n(math.pi / 2, "theta", 0.3) == -math.inf

    def test_alpha_sentinels(self):
        assert solve_n(0.0, "alpha", 0.3) == 0.3
        assert solve_n(math.pi / 2, "alpha", 0.3) == 1.0

    def test_roundtrip(self):
        for branch, target in [("theta", 2.0), ("theta", math.pi / 2 + 1e-3),
                               ("alpha", 0.3), ("alpha", 1.5)]:
            n = solve_n(target, branch, 0.45)
            assert phi_fn(n, 0.45) == pytest.approx(target, abs=1e-12)
        # targets next to the alpha branch's ends: no result misses by more
        # than the nearer end (n = m or n = 1) would
        for m in (1e-9, 0.3, 0.45, 0.9, 1 - 1e-6, 1 - 1e-10):
            for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
                for target in (eps, math.pi / 2 - eps):
                    miss = abs(phi_fn(solve_n(target, "alpha", m), m) - target)
                    bound = max(1e-12, 1.01 * min(target, math.pi / 2 - target))
                    assert miss <= bound, (m, target, miss)

    @given(st.one_of(st.sampled_from([1e-300, 1 - 1e-16]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           st.floats(math.pi / 2, 100 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_theta_bracket_end(self, m, target):
        # the theta solve's far end -2x(2+x), x = 2(target - pi/2)/pi, is
        # past the root for every m
        x = 2.0 * (target - math.pi / 2) / math.pi
        assert _phi_theta(-2.0 * x * (2.0 + x), m) >= target

    def test_against_raw_quadrature_oracle(self):
        # p=2, q=3: bisect the raw integral of the p/q condition directly
        m, target = 0.5, 2 * math.pi / 3

        def raw(n0):
            # rebuild taus from (m, n0) and an arbitrary alpha characteristic
            n1 = (m + 1.0) / 2.0
            den = 1.0 / n1 - 1.0 / n0
            d = 1.0 / den
            tau1 = -d / n0
            return raw_integral_two(tau1, tau1 + d, tau1 + d / m) / 2.0 - target

        n_oracle = brentq(raw, -50.0, -1e-3, xtol=1e-13)
        assert solve_n(target, "theta", m) == pytest.approx(n_oracle, rel=1e-9)

    def test_bad_targets(self):
        with pytest.raises(InfeasibleParametersError):
            solve_n(1.0, "theta", 0.3)
        with pytest.raises(InfeasibleParametersError):
            solve_n(2.0, "alpha", 0.3)


class TestPsi:
    def test_small_m_limit(self):
        point, (p, q, r) = NONLIMIT
        params = classify_params(point, p, q, r)
        rpa = r + point.a
        expected = math.pi**2 * (p * p - rpa * rpa) / q**2
        assert psi_fn(1e-9, point, params) == pytest.approx(expected, rel=1e-4)

    def test_monotone(self):
        point = ModuliPoint(0.25, 1.5)
        params = classify_params(point, 1, 1, 0)
        assert psi_fn(0.3, point, params) < psi_fn(0.6, point, params)

    def test_blowup_towards_one(self):
        point = ModuliPoint(0.25, 1.5)
        params = classify_params(point, 1, 1, 0)
        assert psi_fn(1.0 - 1e-9, point, params) > 100.0

    def test_first_limit_target_exact(self):
        # pi * 11 / 22 rounds below pi/2; the regime makes the target exact,
        # so Psi is defined here and solve_tau roots it
        point = ModuliPoint(Fraction(3, 10), 12.0)
        params = classify_params(point, 11, 22, 0)
        assert params.regime is Regime.FIRST_LIMIT
        assert math.pi * 11 / 22 != math.pi / 2
        tau = solve_tau(point, params)
        target = (math.pi * point.b / params.q) ** 2
        assert psi_fn(tau.m, point, params) == pytest.approx(target, rel=1e-12)
        assert psi_fn(tau.m - 1e-3, point, params) < target
        assert psi_fn(tau.m + 1e-3, point, params) > target
        assert tau.tau1 == 0.0
        assert max(integral_residuals(tau, point, params)) <= 1e-12


class TestSolveTau:
    @pytest.mark.parametrize("point,pqr", [NONLIMIT, FIRST, SECOND, *LAYERED])
    def test_residuals(self, point, pqr):
        # an adaptive quadrature read 1.88 in the r-integral at (0.3, 4.4)
        params, tau = solve(point, pqr)
        res = integral_residuals(tau, point, params)
        assert max(res) <= 1e-13

    def test_limit_cases_exact(self):
        _, tau = solve(*FIRST)
        assert tau.tau1 == 0.0
        assert tau.n0 == -math.inf
        _, tau = solve(*SECOND)
        assert tau.tau2 == 1.0
        assert tau.n1 == 1.0

    @pytest.mark.parametrize("point,pqr", [NONLIMIT, FIRST, SECOND])
    def test_invariants(self, point, pqr):
        params, tau = solve(point, pqr)
        t1, t2, t3 = tau.taus
        assert 0.0 <= t1 < t2 <= 1.0 <= t3 and t2 < t3
        assert tau.m == pytest.approx((t2 - t1) / (t3 - t1), rel=1e-12)
        if t1 > 0:
            assert tau.n0 == pytest.approx(-(t2 - t1) / t1, rel=1e-10)
        if t2 < 1:
            assert tau.n1 == pytest.approx((t2 - t1) / (1 - t1), rel=1e-10)
        assert tau.A == pytest.approx(4 * math.pi**2 * (t1 + t2 + t3 - 1), rel=1e-12)
        assert tau.c**2 == pytest.approx(4 * math.pi**2 * t1 * t2 * t3, abs=1e-10)
        assert tau.d**2 == pytest.approx(
            4 * math.pi**2 * (1 - t1) * (1 - t2) * (t3 - 1), abs=1e-10)
        assert tau.c >= 0.0
        rpa = params.r_plus_a(point)
        if tau.d != 0.0:
            assert np.sign(tau.d) == -np.sign(rpa)
        else:
            # d vanishes exactly when the orbit-space curve is a meridian
            # (tau3 = 1, r+a = 0) or hits the boundary (tau2 = 1)
            assert t2 == 1.0 or abs(t3 - 1.0) < 1e-12

    def test_near_zero_alpha_target(self):
        # |r+a|/q = 1e-9/3 puts n1 within 1e-18 of m; the r-integral itself
        # is 2.1e-9
        point = ModuliPoint(1e-9, 2.1)
        params, tau = solve(point, (2, 3, 0))
        assert integral_residuals(tau, point, params)[2] <= 3e-9

    def test_zero_r_plus_a_gives_tau3_one(self):
        _, tau = solve(ModuliPoint(0, 2.0), (1, 1, 0))
        assert tau.tau3 == pytest.approx(1.0, abs=1e-14)
        assert tau.d == 0.0

    def test_uniqueness_bracket(self):
        point, (p, q, r) = NONLIMIT
        params, tau = solve(*NONLIMIT)
        target = (math.pi * point.b / q) ** 2
        below = psi_fn(tau.m - 1e-3, point, params) - target
        above = psi_fn(tau.m + 1e-3, point, params) - target
        assert below < 0 < above

    def test_converse_quantization(self):
        # quadrature of the emitted taus maps back inside the inequalities
        for point, pqr in (NONLIMIT, FIRST, SECOND):
            params, tau = solve(point, pqr)
            i1, i2, i3 = lattice_integrals(tau)
            q_eff = 2 * math.pi * point.b / i1
            p_eff = i2 * q_eff / (2 * math.pi)
            rpa_eff = i3 * q_eff / (2 * math.pi)
            assert p_eff / q_eff >= 0.5 - 1e-12
            assert rpa_eff / q_eff <= 0.5 + 1e-12
            assert rpa_eff**2 + point.b**2 > p_eff**2 - 1e-9

    def test_first_limit_monotone_continuation(self):
        # tau1 -> 0 monotonically as p/q -> 1/2 from above (q fixed)
        point = ModuliPoint(0.25, 14.0)
        tau1s = []
        for p in (13, 12, 11, 10, 9, 8):
            params, tau = solve(point, (p, 16, 0))
            tau1s.append(tau.tau1)
        assert all(x > y for x, y in zip(tau1s, tau1s[1:]))
        assert tau1s[-1] == 0.0

    @staticmethod
    def elliprj_calls(monkeypatch) -> list:
        """The array size of every elliprj call the solver makes from now."""
        calls = []
        real = tau_solver.elliprj

        def spy(*args):
            calls.append(np.size(args[-1]))
            return real(*args)

        monkeypatch.setattr(tau_solver, "elliprj", spy)
        return calls

    def test_column_solved_as_one_batch(self, monkeypatch):
        # a 15-row column costs 20 elliprj calls (each on an array), two per
        # Newton step; solved one row at a time it costs about 270
        calls = self.elliprj_calls(monkeypatch)
        points = [ModuliPoint(0.3, b) for b in np.linspace(1.4, 3.0, 15)]
        solve_taus(points, classify_params(points[0], 1, 1, 0))
        assert len(calls) <= 24
        assert max(calls) == len(tau_solver._TABLE_M1)

    def test_one_row_newton_steps(self, monkeypatch):
        # one Newton iteration on (m1, t, u), no loop nested in another:
        # 18 elliprj calls at (0.3, 1.4), 10 of them on the table
        calls = self.elliprj_calls(monkeypatch)
        point = ModuliPoint(0.3, 1.4)
        solve_tau(point, classify_params(point, 1, 1, 0))
        assert len(calls) <= 22

    def test_iteration_cap_raises_naming_the_rows(self, monkeypatch):
        # an unconverged solve is an error, never a returned m
        monkeypatch.setattr(tau_solver, "MAX_NEWTON_STEPS", 2)
        point = ModuliPoint(0.3, 1.4)
        params = classify_params(point, 1, 1, 0)
        with pytest.raises(RuntimeError, match=r"\(a, b\) = \(0\.3, 1\.4\)"):
            solve_tau(point, params)
        with pytest.raises(RuntimeError, match=r"\(0\.3, 1\.4\).*\(0\.3, 2\.0\)"):
            solve_taus([point, ModuliPoint(0.3, 2.0)], params)

    def test_circle_family_rejected(self):
        pt = ModuliPoint(-0.6, math.sqrt(0.84))
        params = classify_params(pt, 1, 2, 1)
        with pytest.raises(InfeasibleParametersError):
            solve_tau(pt, params)

    def test_root_past_the_table_is_a_resolution_limit(self):
        # (1,1,0) at (0.3, 4.8) is feasible, but its root of Psi lies past
        # m1 = 2^-39: an error of its own, not InfeasibleParametersError,
        # and the column's other rows still solve
        points = [ModuliPoint(0.3, 4.8), ModuliPoint(0.3, 4.4)]
        params = classify_params(points[0], 1, 1, 0)
        with pytest.raises(ResolutionLimitError, match="beyond m = 1 - "):
            solve_tau(points[0], params)
        assert not issubclass(ResolutionLimitError, InfeasibleParametersError)
        past, tau = solve_taus(points, params)
        assert isinstance(past, ResolutionLimitError)
        assert tau.m > 1.0 - 1e-9

    def test_runtime_under_a_second(self):
        import time

        for point, pqr in (NONLIMIT, FIRST, SECOND):
            start = time.perf_counter()
            solve(point, pqr)
            assert time.perf_counter() - start < 1.0

    @given(
        st.integers(1, 3), st.integers(1, 4), st.integers(-1, 1),
        # keep |r+a|/q away from the 1/2 boundary and b moderate so that the
        # raw-quadrature oracle itself stays meaningful at 1e-8
        st.one_of(st.just(0.0), st.floats(1e-3, 0.4)),
        st.floats(0.05, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    # b = 3.749999364217055: its r residual read 1.69e-8 while the oracle
    # took tau3 - 1 = 3.34e-11 from the rounded tau3, 2.75e-6 relative off
    # the carried gap3
    @example(3, 1, 0, 0.001953125, 0.75)
    def test_random_feasible_residuals(self, p, q, r, a, db):
        rpa = abs(r + ModuliPoint(a, 1.0).a_exact)
        if 2 * p < q or 2 * rpa > q:
            return
        b = math.sqrt(max(p * p - float(rpa) ** 2, 0.0)) + db
        point = ModuliPoint(a, b)
        params = classify_params(point, p, q, r)
        tau = solve_tau(point, params)
        assert max(integral_residuals(tau, point, params)) < 1e-8


def mp_lattice_integrals(tau) -> list:
    """lattice_integrals of the same float triple by 40-digit mp.quad in s,
    t = tau1 + D sin^2 s, with 1 - t and tau3 - t from the carried gaps."""
    with mp.workdps(40):
        t1, t2, t3, gap2, gap3 = (mp.mpf(v) for v in (
            tau.tau1, tau.tau2, tau.tau3, tau.gap2, tau.gap3))
        D = t2 - t1
        w2, w3 = mp.sqrt(t1 * t2 * t3), mp.sqrt((1 - t1) * gap2 * gap3)

        def integral(weight):
            def g(s):
                one_t = gap2 + D * mp.cos(s) ** 2
                return (2 * weight(t1 + D * mp.sin(s) ** 2, one_t)
                        / mp.sqrt(gap3 + one_t))
            return mp.quad(g, [0, mp.pi / 4, mp.pi / 2])

        return [integral(lambda t, one_t: 1),
                mp.pi if t1 == 0 else integral(lambda t, one_t: w2 / t),
                mp.pi if gap2 == 0 else integral(lambda t, one_t: w3 / one_t)]


class TestLatticeIntegrals:
    @pytest.mark.parametrize("point,pqr", [LAYERED[5], *LAYERED[-2:]])
    def test_matches_mp_quad_of_the_same_triple(self, point, pqr):
        _, tau = solve(point, pqr)
        want = mp_lattice_integrals(tau)
        for got, ref in zip(lattice_integrals(tau), want):
            assert abs(got - ref) <= 1e-14, (got, ref)

    def test_one_rule_for_both_quadratures(self, monkeypatch):
        # lambda_bar_quadrature's Gauss-Legendre rule, in v over [-4, 4]
        from eqtorus import functional

        assert functional._gauss_legendre is tau_solver._gauss_legendre
        ranges, real = [], tau_solver._gauss_legendre
        monkeypatch.setattr(tau_solver, "_gauss_legendre",
                            lambda f, a, b: ranges.append((a, b)) or real(f, a, b))
        _, tau = solve(ModuliPoint(0.3, 1.4), (1, 1, 0))
        lattice_integrals(tau)
        assert ranges == [(-4.0, 4.0)] * 3


FAMILIES = [(1, 1, 0), (1, 2, 0), (2, 3, 1), (2, 3, 0)]


@st.composite
def columns(draw):
    """An a-column: exact a (0 and 1/2 among the draws), 1-20 values of b
    with repeats, some of them infeasible, and a family (p, q, r)."""
    a = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(1, 2)]),
                       st.fractions(Fraction(-1, 2), Fraction(1, 2),
                                    max_denominator=1000)))
    bs = draw(st.lists(st.floats(0.5, 3.5), min_size=1, max_size=20))
    bs += draw(st.lists(st.sampled_from(bs), max_size=20 - len(bs)))
    return a, draw(st.permutations(bs)), draw(st.sampled_from(FAMILIES))


def solve_column(points, pqr):
    """One solve_taus call per distinct MapParams, as a scan solves a
    column; a row that does not classify keeps its error."""
    out, groups = [None] * len(points), {}
    for i, point in enumerate(points):
        try:
            groups.setdefault(classify_params(point, *pqr), []).append(i)
        except InfeasibleParametersError as exc:
            out[i] = exc
    for params, rows in groups.items():
        for i, tau in zip(rows, solve_taus([points[i] for i in rows], params)):
            out[i] = tau
    return [bits(row) for row in out]


def bits(result):
    """A triple as the hex of every field, an error as its message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return tuple(float(v).hex() for v in dataclasses.astuple(result))


class TestBatchInvariance:
    @given(columns(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_independent_of_the_batch(self, column, data):
        # a scan row must be bit-identical to solve_tau at its point, so no
        # row may depend on the other rows or the length of its batch
        a, bs, pqr = column
        points = [ModuliPoint(a, b) for b in bs]
        rows = solve_column(points, pqr)
        for point, row in zip(points, rows):
            try:
                single = solve_tau(point, classify_params(point, *pqr))
            except InfeasibleParametersError as exc:
                single = exc
            assert bits(single) == row
        order = data.draw(st.permutations(range(len(points))))
        assert (solve_column([points[i] for i in order], pqr)
                == [rows[i] for i in order])
        k = data.draw(st.integers(1, len(points)))
        assert solve_column(points[:k], pqr) == rows[:k]


class TestThirdLimit:
    def test_degenerate_square(self):
        taus, phi0 = third_limit_asymptote(ModuliPoint(0, 1.0), 1, 2, 0)
        assert taus[0] == pytest.approx(0.0, abs=1e-15)
        assert taus[2] == pytest.approx(1.0, rel=1e-15)
        assert phi0 == pytest.approx(math.pi / 2, rel=1e-12)

    def test_rhombic_latitude(self):
        b0 = 0.95
        a0 = math.sqrt(1 - b0 * b0)
        taus, phi0 = third_limit_asymptote(ModuliPoint(a0, b0), 1, 1, 0)
        assert phi0 == pytest.approx(math.acos(math.sqrt(3) / (2 * b0)), rel=1e-12)

    def test_solver_continuation(self):
        # just inside the boundary the solved taus approach the asymptote
        p, q, r = 1, 1, 0
        a = 0.3
        eps = 1e-4
        b = math.sqrt(p * p - a * a + eps)
        point = ModuliPoint(a, b)
        params = classify_params(point, p, q, r)
        tau = solve_tau(point, params)
        taus_lim, _ = third_limit_asymptote(ModuliPoint(a, math.sqrt(p * p - a * a)),
                                            p, q, r)
        assert abs(tau.tau1 - taus_lim[0]) < 1e-2
        assert abs(tau.tau2 - taus_lim[1]) < 1e-2
        assert abs(tau.tau3 - taus_lim[2]) < 1e-2

    def test_domain_error(self):
        # on the boundary but with 4 p^2 < q^2 there is no limiting latitude
        with pytest.raises(ValueError, match="4 p"):
            third_limit_asymptote(ModuliPoint(0.8, 0.6), 1, 3, 0)
        # off the boundary entirely
        with pytest.raises(InfeasibleParametersError):
            third_limit_asymptote(ModuliPoint(0, 2.0), 1, 2, 0)
