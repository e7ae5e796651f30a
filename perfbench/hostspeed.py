"""Host-speed references: fixed work that runs no eqtorus code.

The benchmark host is a shared machine whose speed drifts by up to 1.6x,
for seconds and for minutes (CPU time stretches with wall time: contention,
not descheduling).  A time measured next to a reference is restated at the
reference speed:

    normalized = raw * nominal / reference time measured alongside

References, each timing the kind of work it stands beside:

* ``sample("mixed")`` -- interpreted scalar Python with calls, small-array
  numpy steps, a scipy sparse assembly and LU solve, ~30 ms: the work of
  the index and scan ops.
* ``sample("vector")`` -- RK4-style numpy steps over 2000-wide arrays,
  ~20 ms: the work of the spectral ops, which sweep 2000 lambdas at once.
  Their slowdowns follow this one (correlation 0.73 per op) and not the
  mixed one, whose normalization widened their run-to-run spread.
* ``IMPORT_COMMAND`` -- a fresh interpreter importing numpy and
  scipy.linalg, ~0.4 s; it is timed next to each set-up probe.

``Tracker`` times the workload's sample reference between ops, for a fixed
share of the op time.

The nominal times are fixed constants, near the fastest each reference ran
on the host the baseline was recorded on (Intel Xeon, 2 vCPUs, Python 3.11,
numpy 2.4, scipy 1.17), so normalized values are seconds at that host's
quiet speed.  Neither reference runs or depends on the program under test.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

IMPORT_REFERENCE_S = 0.40
IMPORT_COMMAND = [sys.executable, "-c", "import numpy, scipy.linalg"]

_STATE: dict = {}


def _setup() -> None:
    import numpy as np
    import scipy.sparse as sps

    n = 24
    lap = sps.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sps.identity(n)
    _STATE["A"] = (sps.kron(eye, lap) + sps.kron(
        sps.diags([-1.0, -1.0], [-1, 1], shape=(n, n)), eye)).tocsc()
    _STATE["rhs"] = np.linspace(0.0, 1.0, n * n)
    _STATE["lams"] = np.linspace(0.1, 2.0, 48)
    _STATE["wide"] = np.linspace(0.1, 2.0, 2000)
    _STATE["rho"] = 1.0 + 0.5 * np.sin(np.linspace(0.0, 6.0, 2001))


def _python_part() -> float:
    def rhs(y, state):
        g = 4.0 - 2.0 * (1.0 + 0.5 * math.sin(y))
        h1, v1, h2, v2 = state
        return [v1, g * h1, v2, g * h2]

    state, y, h = [1.0, 0.0, 0.0, 1.0], 0.0, 1e-3
    for _ in range(10000):
        d = rhs(y, state)
        state = [s + h * ds for s, ds in zip(state, d)]
        y += h
    return state[0]


def _numpy_part(lams=None, steps: int = 1000) -> float:
    import numpy as np

    lams = _STATE["lams"] if lams is None else lams
    rho = _STATE["rho"]
    H = np.zeros((2, lams.size))
    V = np.zeros((2, lams.size))
    H[0] = V[1] = 1.0
    h = 1e-2
    for i in range(steps):
        g0 = 4.0 - lams * rho[2 * i]
        g1 = 4.0 - lams * rho[2 * i + 1]
        k1 = g0 * H
        k2 = g1 * (H + 0.5 * h * V)
        H += h * (V + 0.5 * h * k1)
        V += 0.5 * h * (k1 + k2)
    return float(H[0, 0])


def _sparse_part() -> float:
    import scipy.sparse as sps
    import scipy.sparse.linalg as spla

    m = sps.lil_matrix((600, 600))
    for i in range(600):
        m[i, i] = 4.0
        if i:
            m[i, i - 1] = m[i - 1, i] = -1.0
    x = spla.splu(_STATE["A"]).solve(_STATE["rhs"])
    return float(x[0]) + m.tocsr().sum()


def _vector_part() -> float:
    return _numpy_part(_STATE["wide"], 450)


# kind -> (parts, nominal seconds)
REFERENCES = {
    "mixed": ((_python_part, _numpy_part, _sparse_part), 0.030),
    "vector": ((_vector_part,), 0.018),
}


def sample(kind: str) -> float:
    """Seconds the reference work of this kind takes now."""
    if not _STATE:
        _setup()
    t0 = time.perf_counter()
    for part in REFERENCES[kind][0]:
        part()
    return time.perf_counter() - t0


class Tracker:
    """Reference samples taken between ops: a clump before the first op and
    one after every op, ``duty`` seconds of reference per second of op
    time.  Op j of a run lies between clumps j and j + 1."""

    def __init__(self, kind: str, duty: float = 0.25, first: int = 3):
        self.kind, self.duty = kind, duty
        self.nominal = REFERENCES[kind][1]
        self._owed = 0.0
        sample(kind)  # warm-up: first-call set-up and cold caches
        sample(kind)
        self.clumps: list[list[float]] = [
            [sample(kind) for _ in range(first)]]

    def after_op(self, busy_s: float) -> None:
        self._owed += self.duty * busy_s
        clump = [sample(self.kind)]
        self._owed -= clump[0]
        while self._owed > 0.0:
            clump.append(sample(self.kind))
            self._owed -= clump[-1]
        self.clumps.append(clump)

    def samples(self) -> int:
        return sum(len(c) for c in self.clumps)

    def factor(self) -> float:
        """How much slower than nominal the host ran over the whole run
        (>1: slower)."""
        every = [s for c in self.clumps for s in c]
        return statistics.fmean(every) / self.nominal

    def factor_around(self, j: int) -> float:
        """The same, over the clumps on either side of op j."""
        return 0.5 * (statistics.fmean(self.clumps[j])
                      + statistics.fmean(self.clumps[j + 1])) / self.nominal
