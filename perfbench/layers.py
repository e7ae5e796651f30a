"""Which eqtorus functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each metric names the end-to-end metric and workload it should move:

  spectral.count_below.*, spectral.assemble_N2.self_s,
  spectral.construct_strict_instance.self_s -> ops_per_s, op_p50_s on
      n2_strict (large) and n2_lowq (smaller)
  spectral.monodromy.* (the certificate integrator) -> op_p50_s on n2_lowq
  spectral.roots, spectral.roots_flagged, spectral.certified_root_ratio
      -> warnings_per_op on n2_strict
  stability.* -> ops_per_s on index
  tau_solver.*, elliptic.*, maps.*, functional.* -> ops_per_s on scan (and
      node evaluation cost on n2_*)
  cli.main.self_s (argument parsing, JSON/CSV emission) -> op_p50_s on scan

All values are per op of the traced passes, except the two ratios.
"""

from __future__ import annotations

import numpy as np

from spans import Target

PROFILE_EVALUATORS = ("cos2_phi", "cos_sin_phi", "phi", "theta", "alpha",
                      "rho", "dphi", "dtheta", "dalpha", "map_values",
                      "dy_values", "dx_values")
ELLIPTIC = ("complete_K", "complete_E", "complete_Pi", "incomplete_Pi",
            "jacobi_sn_cn_dn_am", "jacobi_am")


def _count_roots(tracer, args, mode_count) -> None:
    tracer.count("spectral.roots",
                 len(mode_count.eigenvalues) + len(mode_count.at_threshold))
    tracer.count("spectral.roots_flagged",
                 sum("trace residual" in str(w) for w in mode_count.warnings))


def _count_modes(tracer, args, estimate) -> None:
    tracer.count("stability.modes", len(estimate.per_mode))


def _count_retry(tracer, exc) -> None:
    tracer.count("stability.eigsh.retries")


def _points(args) -> int:
    return int(np.size(args[-1]))  # y is the last argument of an evaluator


TARGETS = [
    Target("eqtorus.cli", "main", "cli.main"),
    Target("eqtorus.spectral", "assemble_N2", "spectral.assemble_N2"),
    Target("eqtorus.spectral", "construct_strict_instance",
           "spectral.construct_strict_instance"),
    Target("eqtorus.spectral", "count_below", "spectral.count_below",
           on_result=_count_roots),
    Target("eqtorus.spectral", "monodromy", "spectral.monodromy"),
    Target("eqtorus.stability", "index_nullity_estimate",
           "stability.index_nullity_estimate", on_result=_count_modes),
    Target("eqtorus.stability", "eigsh", "stability.eigsh",
           on_error=_count_retry),
    Target("eqtorus.functional", "lambda_bar_quadrature",
           "functional.lambda_bar_quadrature"),
    Target("eqtorus.tau_solver", "solve_tau", "tau_solver.solve_tau"),
    Target("eqtorus.tau_solver", "solve_n", "tau_solver.solve_n"),
    Target("eqtorus.maps", "build_profiles", "maps.build_profiles"),
    *(Target("eqtorus.maps", f"ProfileSet.{name}", "maps.profile_eval",
             points=_points) for name in PROFILE_EVALUATORS),
    *(Target("eqtorus.elliptic", name, "elliptic") for name in ELLIPTIC),
]

# (metric, unit, span name, field of spans.summarize) for span-derived values
SPAN_METRICS = [
    ("spectral.count_below.calls", "calls/op", "spectral.count_below", "calls"),
    ("spectral.count_below.self_s", "s/op", "spectral.count_below", "self_s"),
    ("spectral.assemble_N2.self_s", "s/op", "spectral.assemble_N2", "self_s"),
    ("spectral.construct_strict_instance.self_s", "s/op",
     "spectral.construct_strict_instance", "self_s"),
    ("spectral.monodromy.calls", "calls/op", "spectral.monodromy", "calls"),
    ("spectral.monodromy.self_s", "s/op", "spectral.monodromy", "self_s"),
    ("stability.index_nullity_estimate.self_s", "s/op",
     "stability.index_nullity_estimate", "self_s"),
    ("stability.eigsh.calls", "calls/op", "stability.eigsh", "calls"),
    ("stability.eigsh.self_s", "s/op", "stability.eigsh", "self_s"),
    ("tau_solver.solve_tau.calls", "calls/op", "tau_solver.solve_tau", "calls"),
    ("tau_solver.solve_tau.self_s", "s/op", "tau_solver.solve_tau", "self_s"),
    ("tau_solver.solve_n.calls", "calls/op", "tau_solver.solve_n", "calls"),
    ("elliptic.calls", "calls/op", "elliptic", "calls"),
    ("elliptic.self_s", "s/op", "elliptic", "self_s"),
    ("maps.build_profiles.calls", "calls/op", "maps.build_profiles", "calls"),
    ("maps.profile_eval.calls", "calls/op", "maps.profile_eval", "calls"),
    ("maps.profile_eval.points", "points/op", "maps.profile_eval", "points"),
    ("maps.profile_eval.self_s", "s/op", "maps.profile_eval", "self_s"),
    ("functional.lambda_bar_quadrature.self_s", "s/op",
     "functional.lambda_bar_quadrature", "self_s"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s"),
]
# (metric, unit) for counters filled by the on_result / on_error hooks
COUNTER_METRICS = [
    ("spectral.roots", "roots/op"),
    ("spectral.roots_flagged", "roots/op"),
    ("stability.eigsh.retries", "calls/op"),
    ("stability.modes", "modes/op"),
]
RATIO_METRICS = [
    ("spectral.certified_root_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
]
UNITS = {name: unit for name, unit, *_ in
         SPAN_METRICS + COUNTER_METRICS + RATIO_METRICS}


def per_layer(summary: dict, counters: dict, ops: int,
              overhead_ratio: float) -> dict:
    """Every per-layer metric as {name: value}; a layer that did not run on
    the workload reads 0.  certified_root_ratio is (roots - flagged) / roots
    over all traced ops, and 0 when no root was found."""
    empty = {"calls": 0, "self_s": 0.0, "points": 0}
    out = {}
    for name, _unit, span, key in SPAN_METRICS:
        out[name] = summary.get(span, empty)[key] / ops
    for name, _unit in COUNTER_METRICS:
        out[name] = counters.get(name, 0) / ops
    roots = counters.get("spectral.roots", 0)
    flagged = counters.get("spectral.roots_flagged", 0)
    out["spectral.certified_root_ratio"] = (roots - flagged) / roots if roots else 0.0
    out["trace_overhead_ratio"] = overhead_ratio
    return out
