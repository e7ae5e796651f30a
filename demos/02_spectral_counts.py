#!/usr/bin/env python3
"""Count the Laplace spectrum of the induced metrics below the critical level
2 by Floquet analysis, mode by mode, and compare with the counting bound.

Run:  python3 demos/02_spectral_counts.py        (~0.8 s on a 2-vCPU host,
      of which the counts and certificates take 0.03 s and the imports most
      of the rest)
      python3 demos/02_spectral_counts.py --strict   (adds the construction
      whose count strictly exceeds the bound: about 0.02 s more, since each
      of its modes is one Hill-matrix solve over q = 50 phases)
"""

import sys

import numpy as np

from eqtorus import ModuliPoint, assemble_N2, classify_params, solve_tau
from eqtorus.maps import build_profiles
from eqtorus.spectral import monodromy, sl_problem

CASES = [
    ((0.3, 1.4), (1, 1, 0)),
    ((0.25, 2.1), (2, 3, 0)),
    ((0.5, 2.0), (2, 3, 1)),
]

for (a, b), (p, q, r) in CASES:
    point = ModuliPoint(a, b)
    params = classify_params(point, p, q, r)
    tau = solve_tau(point, params)
    rep = assemble_N2(tau, params, point)
    print(f"(a,b)=({a},{b}), (p,q,r)=({p},{q},{r})  [{params.regime.value}]")
    for mc in rep.counts_below_2:
        eig = ", ".join(f"{x:.6f}" for x in mc.eigenvalues) or "-"
        print(f"   mode l={mc.l}: {mc.count} eigenvalue(s) in (0,2): {eig}")
    print(f"   N(2) = {rep.n2}   counting bound = {rep.bound_rhs}   "
          f"equality = {rep.equality}")
    print(f"   eigenvalue-at-2 certificates (l=0,1): "
          f"{rep.trace_certificates[0]:.1e}, {rep.trace_certificates[1]:.1e}")

    # the map components themselves are the eigenfunctions at level 2:
    # e^{-2 pi i a} must be a Floquet multiplier of the l=1 problem there
    prof = build_profiles(tau, params, point)
    M = monodromy(sl_problem(prof, 1), 2.0)
    mults = np.linalg.eigvals(M)
    want = np.exp(-2j * np.pi * point.a)
    print(f"   multiplier check at lambda=2: min |mult - e^(-2 pi i a)| = "
          f"{min(abs(mults - want)):.2e}\n")

if "--strict" in sys.argv[1:]:
    from eqtorus import construct_strict_instance

    print("constructing an instance whose count beats the bound...")
    point, params, cert = construct_strict_instance()
    rep = assemble_N2(cert["tau"], params, point)
    print(f"   (p,q,r) = ({params.p},{params.q},{params.r}), "
          f"a = {point.a:.6f}, b = {point.b:.4f}")
    print(f"   mode-2 ground state {cert['lambda0_2']:.6f} < 2, so the l=2 "
          "modes contribute beyond the two that the bound sees:")
    print(f"   N(2) = {rep.n2} > bound = {rep.bound_rhs}")
