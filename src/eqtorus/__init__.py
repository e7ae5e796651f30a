"""Equivariant harmonic tori in S^3 and the critical metrics they induce.

The pipeline: solve_tau turns a conformal class (a, b) and winding integers
(p, q, r) into the latitude-cubic roots (tau1, tau2, tau3); build_profiles
evaluates the harmonic map and its induced metric; assemble_N2 counts the
metric's Weyl function at 2; functional_value gives the normalized
eigenvalue in closed form; the otsuki and stability modules cover the
minimal specialization and the second-variation diagnostics.
"""

from eqtorus.elliptic import (
    complete_E,
    complete_K,
    complete_Pi,
    incomplete_Pi,
    jacobi_am,
    jacobi_sn_cn_dn_am,
)
from eqtorus.functional import flat_lambda1, functional_value, moduli_scan
from eqtorus.maps import (
    build_profiles,
    conformality_residual,
    export_mesh,
    harmonicity_residual,
    hopf_constants,
)
from eqtorus.otsuki import omega_fn, otsuki_map, solve_otsuki
from eqtorus.spectral import assemble_N2, construct_strict_instance, count_below, sl_problem
from eqtorus.stability import (
    hersch_second_variation,
    index_nullity_estimate,
    jacobi_block,
    special_phi0_kernel,
)
from eqtorus.tau_solver import (
    InfeasibleParametersError,
    MapParams,
    ModuliPoint,
    Regime,
    ResolutionLimitError,
    TauTriple,
    classify_params,
    phi_fn,
    psi_fn,
    solve_n,
    solve_tau,
    third_limit_asymptote,
)

__all__ = [
    "complete_K", "complete_E", "complete_Pi", "incomplete_Pi",
    "jacobi_sn_cn_dn_am", "jacobi_am",
    "ModuliPoint", "MapParams", "TauTriple", "Regime",
    "InfeasibleParametersError", "ResolutionLimitError", "classify_params",
    "phi_fn", "solve_n", "psi_fn", "solve_tau", "third_limit_asymptote",
    "build_profiles",
    "harmonicity_residual", "hopf_constants", "export_mesh",
    "sl_problem", "count_below", "assemble_N2", "construct_strict_instance",
    "functional_value", "flat_lambda1", "moduli_scan",
    "omega_fn", "solve_otsuki", "otsuki_map", "conformality_residual",
    "jacobi_block", "special_phi0_kernel", "hersch_second_variation",
    "index_nullity_estimate",
]

__version__ = "0.1.0"
