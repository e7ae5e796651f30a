#!/usr/bin/env python3
"""Second-variation diagnostics: the singular Fourier blocks on the
constant-latitude boundary, their non-integrable kernel fields, the positive
second variation along the first conformal direction, and the index/nullity
of the interior (1,1,0) maps.

Run:  python3 demos/04_jacobi_stability.py   (~1.3 s on 2 cores, about 0.3 s of
      it in the three index/nullity counts)
"""

import math

import numpy as np

from eqtorus import (
    ModuliPoint,
    hersch_second_variation,
    index_nullity_estimate,
    jacobi_block,
    special_phi0_kernel,
)
from eqtorus.stability import hersch_quadrature

# boundary data of (p, q, r) = (1, 2, 1) type: (r+a)^2 + b^2 = p^2
point = ModuliPoint(-0.5, math.sqrt(0.75))
kp = special_phi0_kernel(point, 1, 1, 2)
print(f"distinguished latitude phi0 = {kp.phi0:.12f}")
for k in (2, 0, -2):
    blk = jacobi_block(point, 1, 1, kp.phi0, k, 0)
    print(f"   det J^({k:+d},0) = {abs(blk.det):.3e}   "
          f"(closed form {blk.det_closed_form:.3e})")
print(f"kernel-field residuals |J V| = {kp.residuals[0]:.1e}, "
      f"{kp.residuals[1]:.1e}")
print("integrability would need q=2p and q=2|r+a| at once: "
      f"{kp.needs_q_eq_2p} and {kp.needs_q_eq_2rpa} -> impossible, so the "
      "kernel fields are non-integrable Jacobi fields.\n")

print("second variation along the first conformal direction of S^3")
for b0 in (math.sqrt(3) / 2, 0.95, 1.0):
    v = hersch_second_variation(b0)
    q = hersch_quadrature(b0)
    print(f"   b0 = {b0:.4f}: closed form {v:+.9f}, quadrature {q:+.9f}")
print("positivity means the one-sided energy comparison behind the classical "
      "sphere argument\nfails for these maps.\n")

print("index / nullity of the (1,1,0) maps (discretized Fourier modes):")
# at (0.499, 1.4), 1 - tau2 = 5e-8: sin phi dips to 2e-4 within a period
for a, b in [(0.3, 1.4), (0.0, 1.6), (0.499, 1.4)]:
    est = index_nullity_estimate(ModuliPoint(a, b))
    print(f"   (a,b)=({a},{b}): index = {est.index}, nullity = {est.nullity}, "
          f"converged = {est.converged}")
    for l, row in est.per_mode.items():
        print(f"      mode l={l}: {row['negative']} negative, "
              f"{row['zero']} zero, smallest {row['smallest']:.4g}")
print("\nsix zero modes are the sphere rotations, the seventh is the "
      "y-shift; the three negative\ndirections carry no evident geometric "
      "meaning, which is what makes the maximality\nquestion hard.")
