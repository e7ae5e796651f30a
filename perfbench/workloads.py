"""Seeded workloads: inputs, the op each input becomes, and its output gate.

Seed 0 reproduces the acceptance sets of tests/test_acceptance.py exactly.
Any other seed jitters (a, b) inside the same (p, q, r) families for index
and scan, and the seed triple inside T > 4 for n2_strict.  n2_lowq runs the
criterion-4 set at every seed: jittered b near 2 at a = 0 or 1/2 pushes the
l = 1 trace certificate erratically past its 1e-7 gate (b in [1.96, 2.04]
at a = 0: 6 of 41 values give 1.1e-7 to 6.8e-7), a precision defect of the
certificate integrator that would fail the op.  Every draw is checked against
the family's conditions by this module's own arithmetic and redrawn if it
leaves them, so eqtorus only ever receives valid inputs.  Limit-case
columns (a = 0, a = 1/2) are exact and never jittered: the limit regimes
are decided exactly from a.

An op is one user-visible call: an in-process ``eqtorus.cli.main(argv)``
or, for the strict instance that has no subcommand, the library calls.
``check`` turns its output into an OpResult; a failed gate is a failed
op, not an aborted run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

CERT_TOL = 1e-7        # trace certificates |tr M(2) - 2 cos(2 pi l a)|
LAMBDA_MARGIN = 1e-7   # strict instance: lambda_0(2) < 2 - margin
GAP_TOL = 1e-6         # draws this close to (r+a)^2 + b^2 = p^2 are redrawn
INDEX_EXPECTED = (3, 7)

WHY = {
    "n2_lowq": "everyday N(2) path: 20 acceptance-criterion-4 instances, "
               "q <= 4, short RK4 sweeps in the spectral layer below the "
               "step cap",
    "n2_strict": "strict-count instance (26,50,24): q = 50 periods, every "
                 "sweep hits the 60000-step cap; where one-period Floquet "
                 "counting acts",
    "index": "index/nullity at the 3 criterion-9 points: stability layer "
             "(sparse assembly + eigsh) does the work, spectral none",
    "scan": "CSV moduli scan of (1,1,0), (1,2,0), (2,3,1) columns: the only "
            "workload dominated by tau_solver, elliptic, maps, functional",
}


# the host-speed reference (hostspeed.REFERENCES) of the work each op does
REFERENCE = {"n2_lowq": "vector", "n2_strict": "vector", "index": "mixed",
             "scan": "mixed"}


@dataclass
class OpResult:
    ok: bool
    warnings: int = 0
    detail: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], OpResult]


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """eqtorus.cli.main(argv) in process; looked up per call so a traced
    run sees the wrapped function and an untraced one the original."""
    import eqtorus.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = eqtorus.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_failure(rc: int, err: str) -> OpResult:
    return OpResult(False, detail={"rc": rc, "stderr": err.strip()[-300:]})


def infeasible(a: Fraction, b: float, p: int, q: int, r: int) -> bool:
    """Whether (a, b, p, q, r) violates one of the three inequalities,
    decided here independently of eqtorus."""
    rpa = r + a
    return (2 * p < q or 2 * abs(rpa) > q
            or float(rpa) ** 2 + b * b - p * p <= 0)


def ratio_condition(a: Fraction, p: int, q: int, r: int) -> bool:
    """p/q > 1/sqrt(3) or |r+a|/q < sqrt(3)/4: N(2) meets the bound."""
    rpa = abs(r + a)
    return 3 * p * p > q * q or 16 * rpa * rpa < 3 * q * q


def n2_bound(a: Fraction, p: int, q: int, r: int) -> int:
    """2p - 1 + delta_{2p,q} + 2(ceil(2|r+a| - 1) + delta_{r+a,0})."""
    rpa = r + a
    return (2 * p - 1 + (2 * p == q)
            + 2 * (math.ceil(2 * abs(rpa) - 1) + (rpa == 0)))


def _draw_110(rng: random.Random, a0: Fraction, b0: float):
    """A jittered (1,1,0) point near (a0, b0).  a0 = 0 and a0 = 1/2 (the
    limit classes) stay exact; other a move by up to 0.02 as six-digit
    decimals that keep every mode l <= 8 off the (anti)periodic phases.  b
    moves by up to 2 % and stays at least half as far from the circle-family
    boundary a^2 + b^2 = 1 as b0."""
    limit = a0 in (0, Fraction(1, 2))
    gap0 = float(a0) ** 2 + b0 * b0 - 1.0
    while True:
        a = a0 if limit else Fraction(
            f"{float(a0) + rng.uniform(-0.02, 0.02):.6f}")
        b = round(b0 * (1.0 + rng.uniform(-0.02, 0.02)), 6)
        generic = limit or (0 < a < Fraction(1, 2) and all(
            (2 * l * a).denominator != 1 for l in range(1, 9)))
        if generic and float(a) ** 2 + b * b - 1.0 >= 0.5 * gap0:
            return a, b


def _fmt_a(a: Fraction) -> str:
    return str(a) if a.denominator <= 2 else f"{float(a):.6f}"


# --------------------------------------------------------------------------
# n2_lowq: `eqtorus spectral` on the criterion-4 instances
# --------------------------------------------------------------------------

SPECTRAL_110_POINTS = [
    (0.0, 1.2), (0.0, 2.0), (0.1, 1.1), (0.15, 1.6), (0.25, 1.3),
    (0.3, 1.4), (0.35, 1.9), (0.4, 1.05), (0.5, 1.2), (0.5, 2.0),
]
SPECTRAL_MIXED_CASES = [
    ((0.25, 2.1), (2, 3, 0)), ((0.5, 2.0), (2, 3, 1)),
    ((0.25, 1.25), (1, 2, 0)), ((0.0, 1.3), (1, 2, 1)),
    ((0.0, 2.0), (1, 1, 0)), ((0.3, 2.2), (2, 2, 0)),
    ((0.1, 3.1), (3, 4, 0)), ((0.4, 2.0), (2, 4, 1)),
    ((0.2, 2.6), (2, 3, -1)), ((0.3, 1.4), (1, 1, 0)),
]


def _spectral_check(a: Fraction, p: int, q: int, r: int):
    expected = n2_bound(a, p, q, r)
    ratio = ratio_condition(a, p, q, r)

    def check(output) -> OpResult:
        rc, out, err = output
        if rc != 0:
            return _cli_failure(rc, err)
        rep = json.loads(out)
        certs = max(rep["trace_certificates"].values())
        # where the ratio condition fails (the hybrid row) the theorem needs
        # the tau-sum condition instead; both give N(2) = bound
        ok = (rep["N2"] == expected and certs <= CERT_TOL
              and (ratio or rep["sufficient_condition_met"]))
        return OpResult(ok, len(rep["warnings"]),
                        {"N2": rep["N2"], "expected": expected,
                         "max_certificate": certs})
    return check


def n2_lowq(seed: int) -> list[Op]:
    """The criterion-4 set, whatever the seed (see the module docstring)."""
    cases = [((a, b), (1, 1, 0)) for a, b in SPECTRAL_110_POINTS]
    cases += SPECTRAL_MIXED_CASES
    ops = []
    for (a, b), (p, q, r) in cases:
        a = Fraction(str(a))  # the exact value `--a 0.1` denotes
        argv = ["spectral", "--a", _fmt_a(a), "--b", repr(b),
                "--p", str(p), "--q", str(q), "--r", str(r)]
        ops.append(Op(f"spectral a={_fmt_a(a)} b={b} pqr=({p},{q},{r})",
                      lambda argv=argv: run_cli(argv),
                      _spectral_check(a, p, q, r)))
    return ops


# --------------------------------------------------------------------------
# n2_strict: construct_strict_instance() then assemble_N2, as one op
# --------------------------------------------------------------------------

STRICT_SEED = (Fraction(1, 6), -6.0, Fraction(9, 10))
# relative jitter of m and n1 that keeps (p, q, r) = (26, 50, 24); 1e-3
# already moves the instance to (13, 25, 12) or (39, 75, 36)
STRICT_REL = 5e-5


def strict_T(m: float, n0: float, n1: float) -> float:
    """tau1 + tau3 - tau2 of the seed triple; the recipe needs T > 4."""
    return n1 / (n1 - n0) * (1.0 - n0 / m + n0)


def _strict_call(seed_triple):
    import eqtorus.spectral as sp

    point, params, cert = sp.construct_strict_instance(seed_triple)
    return point, params, cert, sp.assemble_N2(cert["tau"], params, point)


def _strict_check(output) -> OpResult:
    point, params, cert, rep = output
    lam = cert["lambda0_2"]
    certs = max(rep.trace_certificates.values())
    flagged = [float(w.rsplit(" ", 1)[1]) for w in rep.warnings
               if "trace residual" in w]
    ok = (lam is not None and lam < 2.0 - LAMBDA_MARGIN
          and rep.n2 > rep.bound_rhs and certs <= CERT_TOL)
    return OpResult(ok, len(rep.warnings), {
        "pqr": (params.p, params.q, params.r), "a": point.a, "b": point.b,
        "lambda0_2": lam, "N2": rep.n2, "bound_rhs": rep.bound_rhs,
        "max_certificate": certs, "warnings": len(rep.warnings),
        "flagged_roots": len(flagged),
        "max_flagged_residual": max(flagged, default=0.0)})


def n2_strict(seed: int) -> list[Op]:
    triple = STRICT_SEED
    if seed != 0:
        rng = random.Random(seed)
        m0, n00, n10 = (float(x) for x in STRICT_SEED)
        while True:
            # n0 only picks the rational theta target, which stays put
            triple = (m0 * (1.0 + rng.uniform(-STRICT_REL, STRICT_REL)),
                      n00 * (1.0 + rng.uniform(-1e-3, 1e-3)),
                      n10 * (1.0 + rng.uniform(-STRICT_REL, STRICT_REL)))
            if strict_T(*triple) > 4.0:
                break
    label = "strict seed=(" + ", ".join(f"{float(x):.9g}" for x in triple) + ")"
    return [Op(label, lambda: _strict_call(triple), _strict_check)]


# --------------------------------------------------------------------------
# index: `eqtorus stability --report index` at the criterion-9 points
# --------------------------------------------------------------------------

INDEX_POINTS = [(0.3, 1.4), (0.0, 1.6), (0.45, 1.25)]


def _index_check(output) -> OpResult:
    rc, out, err = output
    if rc != 0:
        return _cli_failure(rc, err)
    rep = json.loads(out)
    got = (rep["index"], rep["nullity"])
    warnings = int(not rep["converged"]) + int(got != INDEX_EXPECTED)
    return OpResult(rep["index"] <= 4 and rep["nullity"] >= 6, warnings,
                    {"index": got[0], "nullity": got[1],
                     "converged": rep["converged"]})


def index(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for a0, b0 in INDEX_POINTS:
        a0 = Fraction(str(a0))
        a, b = (a0, b0) if seed == 0 else _draw_110(rng, a0, b0)
        argv = ["stability", "--report", "index", "--a", _fmt_a(a),
                "--b", repr(b)]
        ops.append(Op(f"index a={_fmt_a(a)} b={b}",
                      lambda argv=argv: run_cli(argv), _index_check))
    return ops


# --------------------------------------------------------------------------
# scan: `eqtorus scan` one a-column at a time
# --------------------------------------------------------------------------

SCAN_FAMILIES = [(1, 1, 0), (1, 2, 0), (2, 3, 1)]
SCAN_A = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
SCAN_B = (0.9, 3.0, 15)


def _scan_check(a: float, b_values: np.ndarray, pqr):
    p, q, r = pqr
    a_exact = Fraction(a)
    want = [infeasible(a_exact, float(b), p, q, r) for b in b_values]

    def check(output) -> OpResult:
        rc, out, err = output
        if rc not in (0, 2):
            return _cli_failure(rc, err)
        rows = out.strip().split("\n")
        header, rows = rows[0].split(","), [row.split(",") for row in rows[1:]]
        col = {name: i for i, name in enumerate(header)}
        ok = len(rows) == len(b_values)
        for row, b, want_infeasible in zip(rows, b_values, want):
            status = row[col["status"]]
            if status.startswith("infeasible") != want_infeasible:
                ok = False
            elif not want_infeasible and status != "ok":
                ok = False
            elif not want_infeasible and pqr == (1, 1, 0):
                lam = float(row[col["lambda_bar"]])
                ok &= lam > 4.0 * math.pi**2 / b and lam > 8.0 * math.pi
        # exit code 2 means every row was infeasible
        ok &= (rc == 2) == all(want)
        return OpResult(ok, 0, {"rows": len(rows),
                                "infeasible": sum(want)})
    return check


def scan(seed: int) -> list[Op]:
    rng = random.Random(seed)
    b_min, b_max, steps = SCAN_B
    a_cols = SCAN_A
    while seed != 0:
        lo = round(b_min + rng.uniform(-0.02, 0.02), 6)
        hi = round(b_max + rng.uniform(-0.05, 0.05), 6)
        cols = [a if a in (0.0, 0.5) else round(a + rng.uniform(-0.02, 0.02), 6)
                for a in SCAN_A]
        # keep every grid point clear of the circle-family boundary
        if all(abs((r + a) ** 2 + b * b - p * p) > GAP_TOL
               for a in cols for b in np.linspace(lo, hi, steps)
               for p, q, r in SCAN_FAMILIES):
            b_min, b_max, a_cols = lo, hi, cols
            break
    b_values = np.linspace(b_min, b_max, steps)  # as the CLI computes them
    ops = []
    for pqr in SCAN_FAMILIES:
        for a in a_cols:
            argv = ["scan", "--p", str(pqr[0]), "--q", str(pqr[1]),
                    "--r", str(pqr[2]), "--a-min", repr(a), "--a-max", repr(a),
                    "--a-steps", "1", "--b-min", repr(b_min),
                    "--b-max", repr(b_max), "--b-steps", str(steps),
                    "--jobs", "1"]
            ops.append(Op(f"scan pqr={pqr} a={a}",
                          lambda argv=argv: run_cli(argv),
                          _scan_check(a, b_values, pqr)))
    return ops


WORKLOADS = {"n2_lowq": n2_lowq, "n2_strict": n2_strict, "index": index,
             "scan": scan}
