"""How fast the host runs right now, from a fixed reference workload.

On a host shared with other tenants, the same job takes from 1x to nearly
2x its usual time, and slow phases last from seconds to minutes, so they
can cover whole runs.  The benchmark therefore times this probe next to
every job and divides the job's time by the probe's slowdown.  The probe
mixes the kinds of work the package does: a pure-Python heap Dijkstra (as
in `metric`), a sparse LU factorization and solve (as in `solve`), numpy
streaming over arrays (as in `pform` and `assemble`), and a Python loop
reading and writing single numpy elements (as the Dijkstra of `metric`
does).  The slowdown is the median of the four kernels' own slowdowns, so
one kernel caught by a hiccup of its own does not move it.  The probe uses
only numpy, scipy and the standard library, never `dirichlet_p`, so no
change to the package moves it.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# About the median time of each kernel on the reference host (2 vCPUs, Intel Xeon,
# Python 3.11, numpy 2.4, scipy 1.17).  A factor of 1 means the host runs
# at that speed; the constants only fix the unit, never a comparison.
REFERENCE_S = {"python": 0.0085, "splu": 0.0105, "stream": 0.0115, "scalar": 0.0080}

_DIJKSTRA_SIDE = 50
_STEPS = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, 1.4142), (-1, -1, 1.4142), (1, -1, 1.4142), (-1, 1, 1.4142))


def _dijkstra() -> float:
    m = _DIJKSTRA_SIDE
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        i, j = divmod(u, m)
        for di, dj, w in _STEPS:
            a, b = i + di, j + dj
            if 0 <= a < m and 0 <= b < m:
                v, nd = a * m + b, d + w
                if nd < dist.get(v, np.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist[m * m - 1]


class HostSpeed:
    """Times the probe; `factor()` is the host's current slowdown (1 = reference)."""

    def __init__(self) -> None:
        n = 56
        lap1 = sp.diags_array([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                              offsets=[-1, 0, 1])
        eye = sp.eye_array(n)
        self._laplacian = (sp.kron(eye, lap1) + sp.kron(lap1, eye)).tocsc()
        self._rhs = np.ones(n * n)
        self._kernels = {"python": _dijkstra, "splu": self._splu, "stream": self._stream,
                         "scalar": self._scalar}
        self.factor()  # warm-up: first calls pay for lazy imports and page faults

    def _splu(self) -> float:
        return float(splu(self._laplacian).solve(self._rhs)[0])

    @staticmethod
    def _stream() -> float:
        # allocated per call, so the probe adds nothing to the resident set between calls
        x = np.full(1 << 19, 1.5)
        for _ in range(3):
            x = np.sqrt(np.abs(x * 1.5 - 2.0))
        return float(x.sum())

    @staticmethod
    def _scalar() -> float:
        values = np.full(1 << 16, np.inf)
        j = 0
        for step in range(16000):
            j = (j * 40503 + 12345) % values.size  # scattered, fixed sequence
            if step < values[j]:
                values[j] = step
        return float(values[j])

    def times(self) -> dict[str, float]:
        out = {}
        for name, kernel in self._kernels.items():
            t0 = perf_counter()
            kernel()
            out[name] = perf_counter() - t0
        return out

    def factor(self) -> float:
        return statistics.median(t / REFERENCE_S[k] for k, t in self.times().items())
