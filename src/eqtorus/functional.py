"""Normalized-eigenvalue values of the critical metrics and moduli scans.

The area-normalized eigenvalue of the metric rho(y) g_{a,b} attached to a
map with data (tau1, tau2, tau3) has the closed form

    lambda_bar = 4 pi^2 b (tau1 + tau2 - tau3) + 8 pi q sqrt(tau3 - tau1) E(m),

equal to twice the map energy 2 * int_0^b rho dy.  For (p, q, r) = (1, 1, 0)
it always beats both the flat value 4 pi^2 / b and the universal conformal
floor 8 pi, and it moves monotonically across moduli space: increasing in a,
decreasing in b, with derivatives carried by the Hopf constants
(dE = 2 H_im da + 2 H_re db).

The value is also computed as 2 * int_0^b rho dy by a composite
Gauss-Legendre rule (lambda_bar_quadrature); functional_value carries it as
an independent check of the closed form.  Scans print the closed form only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from eqtorus.elliptic import complete_E, complete_K
from eqtorus.maps import ProfileSet, build_profiles, hopf_constants
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    MapParams,
    ModuliPoint,
    ResolutionLimitError,
    TauTriple,
    _gauss_legendre,
    classify_params,
    solve_n,
    solve_tau,
    solve_taus,
)

__all__ = [
    "FunctionalValue",
    "functional_value",
    "lambda_bar_closed_form",
    "lambda_bar_quadrature",
    "flat_lambda1",
    "xi_fn",
    "xi_tilde_fn",
    "hopf_derivative_check",
    "moduli_scan",
    "write_scan_csv",
    "SCAN_COLUMNS",
]

PETRIDES_FLOOR = 8.0 * math.pi


@dataclass(frozen=True)
class FunctionalValue:
    """Closed-form normalized eigenvalue with its comparison values."""

    lambda_bar: float
    quadrature_value: float
    flat_value: float
    petrides_floor: float
    n2: int | None = None

    @property
    def exceeds_flat(self) -> bool:
        return self.lambda_bar > self.flat_value

    @property
    def exceeds_floor(self) -> bool:
        return self.lambda_bar > self.petrides_floor

    @property
    def beats_both(self) -> bool:
        return self.exceeds_flat and self.exceeds_floor


def lambda_bar_closed_form(tau: TauTriple, params: MapParams,
                           point: ModuliPoint) -> float:
    t1, t2, t3 = tau.taus
    return (4.0 * math.pi**2 * point.b * (t1 + t2 - t3)
            + 8.0 * math.pi * params.q * math.sqrt(t3 - t1) * complete_E(tau.m))


def lambda_bar_quadrature(profiles: ProfileSet) -> float:
    """2 * int_0^b rho dy by composite 16-point Gauss-Legendre
    (tau_solver._gauss_legendre) over one latitude period b/q.

    rho is analytic and periodic in y, so the rule converges geometrically
    in the number of panels; it raises RuntimeError if 4096 panels do not
    settle.
    """
    per = profiles.point.b / profiles.params.q
    return 2.0 * _gauss_legendre(profiles.rho, 0.0, per) * profiles.params.q


def functional_value(tau: TauTriple, params: MapParams, point: ModuliPoint,
                     with_n2: bool = False) -> FunctionalValue:
    """Closed form, its quadrature cross-check, and the comparison values."""
    closed = lambda_bar_closed_form(tau, params, point)
    profiles = build_profiles(tau, params, point)
    quad_val = lambda_bar_quadrature(profiles)
    n2 = None
    if with_n2:
        from eqtorus.spectral import assemble_N2

        n2 = assemble_N2(tau, params, point).n2
    return FunctionalValue(lambda_bar=closed, quadrature_value=quad_val,
                           flat_value=flat_lambda1(point),
                           petrides_floor=PETRIDES_FLOOR, n2=n2)


def flat_lambda1(point: ModuliPoint) -> float:
    """Normalized first eigenvalue of the flat torus: 4 pi^2 b min |gamma*|^2.

    The dual lattice vector k (1, -a/b) + j (0, 1/b) has squared length
    k^2 + (j - k a)^2 / b^2.  Lagrange-Gauss reduction of the integer basis
    (k, j) = (1, 0), (0, 1) gives a reduced basis u, v, and every shortest
    vector of a plane lattice is one of +-u, +-v, +-(u + v), +-(u - v), so
    the minimum over those four is exact for every lattice.  On the
    standard moduli domain the value collapses to 4 pi^2 / b.
    """
    a, b = point.a, point.b

    def norm2(w):
        k, j = w
        return k * k + (j - k * a) ** 2 / (b * b)

    def dot(w, z):
        return w[0] * z[0] + (w[1] - w[0] * a) * (z[1] - z[0] * a) / (b * b)

    u, v = (1, 0), (0, 1)
    if norm2(u) > norm2(v):
        u, v = v, u
    while True:  # |u| <= |v|; the loop ends once v - mu u is no shorter
        mu = round(dot(u, v) / norm2(u))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm2(v) >= norm2(u):
            break
        u, v = v, u
    candidates = (u, v, (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1]))
    return 4.0 * math.pi**2 * b * min(norm2(w) for w in candidates)


# --------------------------------------------------------------------------
# the comparison functions behind the (1,1,0) inequality
# --------------------------------------------------------------------------


def xi_fn(m: float) -> float:
    """(m - m/n0 - 1) K^2 + 2 K E with n0 the theta characteristic at target pi.

    Strictly above pi^2 on (0, 1), with limit pi^2 as m -> 0; governs the
    comparison of the (1,1,0) value with the flat one.
    """
    n0 = solve_n(math.pi, "theta", m)
    K = complete_K(m)
    return (m - m / n0 - 1.0) * K * K + 2.0 * K * complete_E(m)


def xi_tilde_fn(m: float) -> float:
    """xi(m) / sqrt(Psi(m)) for the (1,1,0) family; decreasing to 2 at m -> 1."""
    n0 = solve_n(math.pi, "theta", m)
    K = complete_K(m)
    psi = (1.0 - m / n0) * K * K  # (1/n1 - 1/n0) m K^2 with n1 = m
    return xi_fn(m) / math.sqrt(psi)


# --------------------------------------------------------------------------
# moduli derivatives via the Hopf constants
# --------------------------------------------------------------------------


def _energy(point: ModuliPoint) -> float:
    """The energy of the (1,1,0) map at point."""
    params = classify_params(point, 1, 1, 0)
    tau = solve_tau(point, params)
    return 0.5 * lambda_bar_closed_form(tau, params, point)


def hopf_derivative_check(point: ModuliPoint) -> dict:
    """Finite-difference energy derivatives of the (1,1,0) family vs 2 H.

    Central differences of step h = 1e-4 with one Richardson step at h/2
    for d E/d a and d E/d b; the holomorphicity of the Hopf differential
    predicts dE/da = 2 H_im and dE/db = 2 H_re.  Returns both sides and the
    errors.
    """
    a, b, h = point.a, point.b, 1e-4
    # small negative a is fine (the class is mirror symmetric); only the
    # constant-latitude boundary must stay strictly outside the stencil
    if (abs(a) + h) ** 2 + (b - h) ** 2 <= 1.0:
        raise ValueError("step crosses the circle-family boundary")
    if abs(a) + h > 0.5:
        raise ValueError(f"|a| + h = {abs(a) + h} leaves the |r+a|/q <= 1/2 "
                         "region")

    def central(f, x0, step):
        return (f(x0 + step) - f(x0 - step)) / (2.0 * step)

    def richardson(f, x0):
        d1 = central(f, x0, h)
        d2 = central(f, x0, h / 2.0)
        return (4.0 * d2 - d1) / 3.0

    dE_da = richardson(lambda t: _energy(ModuliPoint(t, b)), a)
    dE_db = richardson(lambda t: _energy(ModuliPoint(a, t)), b)
    params = classify_params(point, 1, 1, 0)
    tau = solve_tau(point, params)
    hc = hopf_constants(tau)
    return {
        "dE_da": dE_da,
        "dE_db": dE_db,
        "two_h_im": 2.0 * hc.h_im,
        "two_h_re": 2.0 * hc.h_re,
        "err_a": abs(dE_da - 2.0 * hc.h_im),
        "err_b": abs(dE_db - 2.0 * hc.h_re),
    }


# --------------------------------------------------------------------------
# scans
# --------------------------------------------------------------------------

SCAN_COLUMNS = ["a", "b", "tau1", "tau2", "tau3", "m", "lambda_bar",
                "flat_value", "petrides_floor", "N2", "H_re", "H_im",
                "status"]


def _scan_column(a: float, b_values: list[float], p: int, q: int, r: int,
                 with_n2: bool) -> list[dict]:
    """The CSV rows of one a-column; computes only the printed columns.

    Every row that classifies gets its tau triple from one solve_taus call
    per distinct MapParams (the regime is the column's, except on the
    circle-family boundary).  lambda_bar is the closed form: the quadrature
    cross-check of functional_value is not a scan column, so it is not
    computed here.
    """
    from eqtorus.spectral import assemble_N2, n2_lower_bound, ratio_condition

    rows, columns = [], {}
    for b in b_values:
        point = ModuliPoint(a, b)
        row = dict.fromkeys(SCAN_COLUMNS)
        row["a"], row["b"] = point.a, point.b
        rows.append(row)
        try:
            params = classify_params(point, p, q, r)
        except InfeasibleParametersError as exc:
            row["status"] = f"infeasible: {exc}"
            continue
        columns.setdefault(params, []).append((row, point))
    for params, members in columns.items():
        taus = solve_taus([point for _, point in members], params)
        # the ratio condition and the counting bound read only p, q, r and
        # the column's exact a; where the condition holds it certifies
        # equality with the bound, making the Floquet count unnecessary
        column = members[0][1]
        bound = (n2_lower_bound(params, column)
                 if not with_n2 and ratio_condition(params, column) else None)
        for (row, point), tau in zip(members, taus):
            if isinstance(tau, InfeasibleParametersError):
                row["status"] = f"infeasible: {tau}"
                continue
            if isinstance(tau, ResolutionLimitError):
                row["status"] = f"resolution_limit: {tau}"
                continue
            hc = hopf_constants(tau)
            row.update(tau1=tau.tau1, tau2=tau.tau2, tau3=tau.tau3, m=tau.m,
                       lambda_bar=lambda_bar_closed_form(tau, params, point),
                       flat_value=flat_lambda1(point),
                       petrides_floor=PETRIDES_FLOOR, H_re=hc.h_re,
                       H_im=hc.h_im, status="ok")
            if with_n2:
                row["N2"] = assemble_N2(tau, params, point).n2
            elif bound is not None:
                row["N2"] = bound
    return rows


def moduli_scan(a_values, b_values, p: int, q: int, r: int,
                with_n2: bool = False, jobs: int = 1) -> list[dict]:
    """Grid scan over (a, b); infeasible points, and points past the tau
    solve's resolution limit, are reported per row.

    The unit of work is one a-column: its rows share the branch targets, so
    solve_taus solves them together, and jobs > 1 hands each column to a
    worker process.  Row order follows the grid index (a major, b minor)
    regardless of how work is scheduled, and every row is bit-identical
    whatever the grid around it.
    """
    a_values = [float(a) for a in a_values]
    b_values = [float(b) for b in b_values]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_scan_column, a, b_values, p, q, r, with_n2)
                       for a in a_values]
            return [row for f in futures for row in f.result()]
    return [row for a in a_values
            for row in _scan_column(a, b_values, p, q, r, with_n2)]


def write_scan_csv(rows: list[dict], fh) -> None:
    """CSV with a header row; floats at 17 significant digits."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        out = []
        for key in SCAN_COLUMNS:
            val = row.get(key)
            if isinstance(val, float):
                out.append(f"{val:.17g}")
            elif val is None:
                out.append("")
            else:
                out.append(str(val))
        writer.writerow(out)
