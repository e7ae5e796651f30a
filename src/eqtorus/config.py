"""Run configuration: the tolerances.

The base tolerance of the tau solver can be scaled globally through the
environment variable EQTORUS_TOL_OVERRIDE (a positive multiplier, read at
call time), or set per run from a key=value config file via the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["Tolerances", "tolerances", "load_config"]


@dataclass(frozen=True)
class Tolerances:
    solver: float = 1e-14      # xtol of the outer m-root find


def tolerances() -> Tolerances:
    """Base tolerances with the EQTORUS_TOL_OVERRIDE multiplier applied."""
    base = Tolerances()
    factor = os.environ.get("EQTORUS_TOL_OVERRIDE")
    if factor is None:
        return base
    f = float(factor)
    if not f > 0:
        raise ValueError("EQTORUS_TOL_OVERRIDE must be a positive multiplier")
    return Tolerances(base.solver * f)


_KEYS = {"solver_tol": "solver"}


def load_config(path: str) -> Tolerances:
    """Parse a key=value config file over tolerances().

    Recognized key: solver_tol.  Blank lines and lines starting with '#'
    are ignored.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[_KEYS[key]] = float(value)
    return replace(tolerances(), **values)
