"""The one tolerance of the tau solver, as a read-only record.

Every numerical tolerance in eqtorus is a constant of the code that uses
it; nothing sets one at run time.  Tolerances records the stopping
tolerance of the outer Newton iteration in tau_solver.solve_taus, so that a
run can store the value it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Tolerances", "tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # a row of the outer Newton solve on m stops once its step in m is at
    # most this; the step it stops at is taken, so quadratic convergence
    # leaves m off by far less
    solver: float = field(default=1e-14, init=False)


def tolerances() -> Tolerances:
    """The tolerances eqtorus computes at."""
    return Tolerances()
