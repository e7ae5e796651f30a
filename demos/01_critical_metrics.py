#!/usr/bin/env python3
"""Walk through the core construction: from a conformal class and a winding
triple to the harmonic map, its induced metric, and the normalized-eigenvalue
value that beats the flat torus.

Run:  python3 demos/01_critical_metrics.py
"""

import math

import numpy as np

from eqtorus import (
    ModuliPoint,
    build_profiles,
    classify_params,
    flat_lambda1,
    functional_value,
    harmonicity_residual,
    hopf_constants,
    solve_tau,
)
from eqtorus.tau_solver import integral_residuals

CASES = [
    ("generic interior class", 0.25, 2.1, 2, 3, 0),
    ("first limit  (p/q = 1/2, image in an equatorial S^2)", 0.25, 1.25, 1, 2, 0),
    ("second limit (|r+a|/q = 1/2, curve meets the orbit boundary)", 0.5, 2.0, 2, 3, 1),
]

print("=" * 72)
print("Solving the three defining integral conditions")
print("=" * 72)
for label, a, b, p, q, r in CASES:
    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    tau = solve_tau(point, params)
    res = integral_residuals(tau, point, params)
    print(f"\n{label}: (a,b)=({a},{b}), (p,q,r)=({p},{q},{r})")
    print(f"  regime         {params.regime.value}")
    print(f"  (tau1,tau2,tau3) = ({tau.tau1:.12f}, {tau.tau2:.12f}, {tau.tau3:.12f})")
    print(f"  modulus m      {tau.m:.12f}")
    print(f"  residuals of the three integral conditions: "
          f"{res[0]:.1e}, {res[1]:.1e}, {res[2]:.1e}")

    prof = build_profiles(tau, params, point)
    z1, z2 = (complex(z) for z in prof.map_values(0.0, 0.0))
    defect = abs(abs(z1) ** 2 + abs(z2) ** 2 - 1.0)
    print(f"  u(0,0) = ({z1:.6f}, {z2:.6f}),  |u|^2-1 = {defect:.1e}")
    print(f"  harmonicity residual (tension field): "
          f"{harmonicity_residual(prof, n=400):.2e}")

print()
print("=" * 72)
print("The distinguished (1,1,0) family: better than flat in every class")
print("=" * 72)
print(f"{'a':>5} {'b':>5} {'lambda_bar':>12} {'flat':>10} {'8 pi':>8} "
      f"{'H_re':>9} {'H_im':>9}")
for a in (0.0, 0.25, 0.5):
    for b in (1.2, 1.6, 2.0):
        point = ModuliPoint(a, b)
        params = classify_params(point, 1, 1, 0)
        tau = solve_tau(point, params)
        fv = functional_value(tau, params, point)
        hc = hopf_constants(tau)
        assert fv.beats_both
        print(f"{a:>5} {b:>5} {fv.lambda_bar:>12.6f} {fv.flat_value:>10.6f} "
              f"{8 * math.pi:>8.4f} {hc.h_re:>9.5f} {hc.h_im:>9.5f}")
print("\nevery row exceeds max(flat, 8 pi); the value rises with a and "
      "falls with b,\nwith derivatives 2*H_im and 2*H_re of the map energy.")
