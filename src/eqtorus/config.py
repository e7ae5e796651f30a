"""The one tolerance of the tau solver, as a read-only record.

Every numerical tolerance in eqtorus is a constant of the code that uses
it; nothing sets one at run time.  Tolerances records the xtol of the
outer m-root find in tau_solver.solve_tau, so that a run can store the
value it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Tolerances", "tolerances"]


@dataclass(frozen=True)
class Tolerances:
    solver: float = field(default=1e-14, init=False)  # xtol of the m-root


def tolerances() -> Tolerances:
    """The tolerances eqtorus computes at."""
    return Tolerances()
