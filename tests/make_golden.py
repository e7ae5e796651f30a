"""Write tests/golden_cli.json, the golden CLI outputs of tests/test_golden.py.

Runs `eqtorus scan` on the 18 seed-0 scan columns (families (1,1,0),
(1,2,0), (2,3,1); a in {0, 0.1, ..., 0.5}; b = linspace(0.9, 3, 15)) and
`eqtorus spectral` on the 20 criterion-4 instances of tests/test_acceptance.py,
in process, and stores each argv with its exit code and stdout.  A spectral
entry also stores m1 = 1 - m of its tau solve, which sets how closely its
tau-derived floats are compared.  The commit and the numpy and scipy
versions are recorded with them.

Regenerate only on purpose, from the commit whose outputs are the
reference:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import subprocess
from fractions import Fraction

import numpy as np
import scipy

from eqtorus.cli import main
from eqtorus.tau_solver import ModuliPoint, classify_params, solve_tau
from test_acceptance import SPECTRAL_110_POINTS, SPECTRAL_MIXED_CASES

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

SCAN_FAMILIES = [(1, 1, 0), (1, 2, 0), (2, 3, 1)]
SCAN_A = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
SCAN_B = (0.9, 3.0, 15)


def scan_argvs() -> list[list[str]]:
    b_min, b_max, steps = SCAN_B
    return [["scan", "--p", str(p), "--q", str(q), "--r", str(r),
             "--a-min", repr(a), "--a-max", repr(a), "--a-steps", "1",
             "--b-min", repr(b_min), "--b-max", repr(b_max),
             "--b-steps", str(steps), "--jobs", "1"]
            for p, q, r in SCAN_FAMILIES for a in SCAN_A]


def spectral_cases() -> list[tuple[str, float, tuple[int, int, int]]]:
    """(a as the CLI takes it, b, (p, q, r)) of the criterion-4 set."""
    cases = [((a, b), (1, 1, 0)) for a, b in SPECTRAL_110_POINTS]
    cases += [(ab, pqr) for ab, pqr, _ in SPECTRAL_MIXED_CASES]
    out = []
    for (a, b), pqr in cases:
        a = Fraction(str(a))
        out.append((str(a) if a.denominator <= 2 else str(float(a)), b, pqr))
    return out


def spectral_argv(a: str, b: float, pqr) -> list[str]:
    p, q, r = pqr
    return ["spectral", "--a", a, "--b", repr(b),
            "--p", str(p), "--q", str(q), "--r", str(r)]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def golden() -> dict:
    scan = []
    for argv in scan_argvs():
        rc, out = run(argv)
        scan.append({"argv": argv, "rc": rc, "stdout": out})
    spectral = []
    for a, b, pqr in spectral_cases():
        point = ModuliPoint(a, b)
        m1 = 1.0 - solve_tau(point, classify_params(point, *pqr)).m
        argv = spectral_argv(a, b, pqr)
        rc, out = run(argv)
        spectral.append({"argv": argv, "rc": rc, "m1": m1, "stdout": out})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=GOLDEN.parent).stdout.strip()
    return {"commit": commit, "numpy": np.__version__,
            "scipy": scipy.__version__, "scan": scan, "spectral": spectral}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
