"""Command-line surface: solve-tau, value, spectral, scan, otsuki, stability,
mesh.  All commands print JSON (schema "1") except scan, which streams CSV.

Exit codes: 0 success, 2 infeasible parameters (with the violated inequality
named on stderr), 1 internal error, solve-tau's residual gate and a point
past the tau solve's resolution limit included.  The
--a flag accepts exact rationals ("1/4") as well as decimals; the distinction
matters because the limit-case classification is discontinuous in a.  No
tolerance is settable: every one is a constant of the module that uses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from eqtorus.tau_solver import (
    InfeasibleParametersError,
    ModuliPoint,
    classify_params,
    integral_residuals,
    solve_tau,
)

SCHEMA = "1"
# solve-tau exits 1, naming the integral, when a residual of the solved
# triple exceeds this
RESIDUAL_TOL = 1e-9


def _numpy_to_python(o):
    """json.dumps hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, default=_numpy_to_python))


def _point(args) -> ModuliPoint:
    return ModuliPoint(args.a, args.b)


def _solve(args):
    point = _point(args)
    params = classify_params(point, args.p, args.q, args.r)
    tau = solve_tau(point, params)
    return point, params, tau


def _require_positive(*flags) -> None:
    """Reject a count below 1, naming its flag: (flag, value) pairs."""
    for flag, value in flags:
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_solve_tau(args) -> int:
    point, params, tau = _solve(args)
    res = dict(zip(("b_integral", "p_integral", "r_integral"),
                   integral_residuals(tau, point, params)))
    over = [f"{name} {value:.3g}" for name, value in res.items()
            if not value <= RESIDUAL_TOL]
    if over:
        raise RuntimeError(f"integral residual above {RESIDUAL_TOL:g}: "
                           + ", ".join(over))
    _emit({
        "a": point.a, "b": point.b,
        "p": params.p, "q": params.q, "r": params.r,
        "regime": params.regime.value,
        "tau1": tau.tau1, "tau2": tau.tau2, "tau3": tau.tau3,
        "m": tau.m, "n0": None if tau.n0 == -math.inf else tau.n0,
        "n1": tau.n1, "A": tau.A, "c": tau.c, "d": tau.d,
        "residuals": res,
    })
    return 0


def cmd_value(args) -> int:
    from eqtorus.functional import functional_value

    point, params, tau = _solve(args)
    fv = functional_value(tau, params, point, with_n2=args.with_n2)
    _emit({
        "a": point.a, "b": point.b,
        "p": params.p, "q": params.q, "r": params.r,
        "lambda_bar": fv.lambda_bar,
        "quadrature_value": fv.quadrature_value,
        "flat_value": fv.flat_value,
        "petrides_floor": fv.petrides_floor,
        "N2": fv.n2,
        "exceeds_flat": fv.exceeds_flat,
        "exceeds_floor": fv.exceeds_floor,
        "beats_both": fv.beats_both,
    })
    return 0


def cmd_spectral(args) -> int:
    from eqtorus.spectral import assemble_N2

    point, params, tau = _solve(args)
    rep = assemble_N2(tau, params, point)
    _emit({
        "a": point.a, "b": point.b,
        "p": params.p, "q": params.q, "r": params.r,
        "N2": rep.n2,
        "bound_rhs": rep.bound_rhs,
        "equality": rep.equality,
        "sufficient_condition_met": rep.sufficient_condition_met,
        "ratio_condition_met": rep.ratio_condition_met,
        "tau_sum": rep.tau_sum,
        "modes": [{"l": mc.l, "count": mc.count,
                   "eigenvalues": mc.eigenvalues,
                   "at_threshold": mc.at_threshold}
                  for mc in rep.counts_below_2],
        "trace_certificates": rep.trace_certificates,
        "warnings": rep.warnings,
    })
    return 0


def cmd_scan(args) -> int:
    from eqtorus.functional import moduli_scan, write_scan_csv

    _require_positive(("--a-steps", args.a_steps), ("--b-steps", args.b_steps),
                      ("--jobs", args.jobs))
    a_vals = np.linspace(args.a_min, args.a_max, args.a_steps)
    b_vals = np.linspace(args.b_min, args.b_max, args.b_steps)
    rows = moduli_scan(a_vals, b_vals, args.p, args.q, args.r,
                       with_n2=args.with_n2, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_scan_csv(rows, fh)
    else:
        write_scan_csv(rows, sys.stdout)
    failed = sum(1 for row in rows if row["status"] != "ok")
    return 0 if failed < len(rows) else 2


def cmd_otsuki(args) -> int:
    from eqtorus.maps import conformality_residual, export_mesh, harmonicity_residual
    from eqtorus.otsuki import otsuki_map, solve_otsuki

    _require_positive(("--nx", args.nx), ("--ny", args.ny))
    ot = solve_otsuki(args.pt, args.qt)
    point, params, tau, prof = otsuki_map(ot, k=args.k, r_t=args.rt)
    diag, offdiag = conformality_residual(prof)
    payload = {
        "p_t": ot.p_t, "q_t": ot.q_t,
        "m_star": ot.m_star, "b_t": ot.b_t,
        "a": point.a, "b": point.b,
        "p": params.p, "q": params.q, "r": params.r,
        "tau1": tau.tau1, "tau2": tau.tau2, "tau3": tau.tau3,
        "conformality_residual_diag": diag,
        "conformality_residual_offdiag": offdiag,
        "harmonicity_residual": harmonicity_residual(prof, n=500),
    }
    if args.mesh:
        with open(args.mesh, "w", encoding="utf-8") as fh:
            payload["mesh_records"] = export_mesh(prof, args.nx, args.ny, fh)
        payload["mesh_file"] = args.mesh
    _emit(payload)
    return 0


def cmd_stability(args) -> int:
    from eqtorus import stability as st

    given = {"--p": args.p, "--q": args.q, "--r": args.r}
    wrong = [f"{flag} {v}" for (flag, v), want in zip(given.items(), (1, 1, 0))
             if v not in (None, want)]
    if args.report == "index" and wrong:
        raise ValueError(", ".join(wrong) + ": index counts (1,1,0) maps only")
    p, q, r = (w if v is None else v
               for v, w in zip(given.values(), (1, 2, 0)))
    if args.report == "block":
        point = _point(args)
        blk = st.jacobi_block(point, p, r, args.phi0, args.k, args.l)
        _emit({
            "report": "block", "k": blk.k, "l": blk.l,
            "matrix_re": blk.matrix.real, "matrix_im": blk.matrix.imag,
            "det_re": blk.det.real, "det_im": blk.det.imag,
            "det_closed_form": blk.det_closed_form,
        })
    elif args.report == "kernel":
        point = _point(args)
        kp = st.special_phi0_kernel(point, p, r, q)
        _emit({
            "report": "kernel", "phi0": kp.phi0, "q": kp.q,
            "residuals": list(kp.residuals),
            "needs_q_eq_2p": kp.needs_q_eq_2p,
            "needs_q_eq_2rpa": kp.needs_q_eq_2rpa,
            "integrability_possible": kp.integrability_possible,
        })
    elif args.report == "hersch":
        _emit({
            "report": "hersch", "b0": args.b0,
            "value": st.hersch_second_variation(args.b0),
            "quadrature": st.hersch_quadrature(args.b0),
        })
    else:  # index
        point = _point(args)
        est = st.index_nullity_estimate(point)
        _emit({
            "report": "index", "a": point.a, "b": point.b,
            "p": 1, "q": 1, "r": 0,
            "index": est.index, "nullity": est.nullity,
            "converged": est.converged, "per_mode": est.per_mode,
        })
    return 0


def cmd_mesh(args) -> int:
    from eqtorus.maps import build_profiles, export_mesh

    _require_positive(("--nx", args.nx), ("--ny", args.ny))
    point, params, tau = _solve(args)
    prof = build_profiles(tau, params, point)
    with open(args.out, "w", encoding="utf-8") as fh:
        count = export_mesh(prof, args.nx, args.ny, fh)
    _emit({"mesh_file": args.out, "mesh_records": count,
           "a": point.a, "b": point.b,
           "p": params.p, "q": params.q, "r": params.r})
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_point_args(sp):
    sp.add_argument("--a", required=True,
                    help="lattice shear; decimal or exact rational like 1/4")
    sp.add_argument("--b", type=float, required=True, help="lattice height > 0")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args reads it and sets
    every option of the chosen subcommand on a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="eqtorus",
        description="Equivariant harmonic tori in S^3 and their critical metrics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-tau", help="solve the defining integral system")
    _add_point_args(sp)
    sp.set_defaults(func=cmd_solve_tau)

    sp = sub.add_parser("value", help="normalized eigenvalue of the metric")
    _add_point_args(sp)
    sp.add_argument("--with-n2", action="store_true",
                    help="attach the exact Weyl count (runs the Floquet sweep)")
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("spectral", help="exact Weyl count N(2) by Floquet modes")
    _add_point_args(sp)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("scan", help="moduli-space scan to CSV")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--a-min", type=float, default=0.0)
    sp.add_argument("--a-max", type=float, default=0.5)
    sp.add_argument("--a-steps", type=int, default=6)
    sp.add_argument("--b-min", type=float, default=1.05)
    sp.add_argument("--b-max", type=float, default=2.5)
    sp.add_argument("--b-steps", type=int, default=6)
    sp.add_argument("--with-n2", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", help="CSV target (default stdout)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("otsuki", help="minimal torus for a winding ratio")
    sp.add_argument("--pt", type=int, required=True)
    sp.add_argument("--qt", type=int, required=True)
    sp.add_argument("--k", type=int, default=1, help="cover degree")
    sp.add_argument("--rt", type=int, default=0)
    sp.add_argument("--mesh", help="write a JSONL vertex mesh here")
    sp.add_argument("--nx", type=int, default=48)
    sp.add_argument("--ny", type=int, default=96)
    sp.set_defaults(func=cmd_otsuki)

    sp = sub.add_parser("stability", help="Jacobi-operator diagnostics")
    sp.add_argument("--report", choices=["block", "kernel", "hersch", "index"],
                    required=True)
    sp.add_argument("--a", default="0")
    sp.add_argument("--b", type=float, default=1.0)
    for flag in ("--p", "--q", "--r"):  # block, kernel: 1, 2, 0 if unset
        sp.add_argument(flag, type=int)
    sp.add_argument("--phi0", type=float, default=math.pi / 4)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--b0", type=float, default=1.0)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("mesh", help="JSONL vertex mesh of one map")
    _add_point_args(sp)
    sp.add_argument("--nx", type=int, default=48)
    sp.add_argument("--ny", type=int, default=96)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_mesh)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleParametersError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
