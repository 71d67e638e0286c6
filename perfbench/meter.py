"""Speed meter: a fixed unit of reference work, timed between queries.

The benchmark runs on shared hosts whose speed swings by 20-30% within a
minute (see README.md, "Reference speed").  The worker times one unit of
the work below after every query.  run.py scales each query's latency by
``REFERENCE_S`` over the median of the unit times measured around it, so
``queries_per_s`` and the latency percentiles are stated at one reference
speed: the speed at which a unit takes ``REFERENCE_S``.

The unit does not call the package, so no change to the package moves it.
It mixes the kinds of work the workloads spend their time on: scalar
``scipy.stats`` calls, a Gauss sum over scipy densities, a pure-Python
counting recurrence, seeded numpy draws and a broadcast comparison block.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import stats

# one unit at the median speed of the 2-vCPU machine of the baseline (README.md)
REFERENCE_S = 0.004
_GAUSS = list(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(11))))


def _scalar_stats() -> float:
    s = 0.0
    for k in range(1, 6):
        z = stats.norm.ppf(1.0 - 0.05 / k)
        s += stats.norm.cdf(z - 0.1 * k) + math.sqrt(k)
    return s


def _quadrature() -> float:
    # a Gauss-Legendre sum with scalar density calls, as quad makes them
    return sum(w * stats.norm.cdf(4.0 * x - 0.5) * stats.norm.pdf(4.0 * x)
               for x, w in _GAUSS) * 4.0


def _recurrence(m: int = 12, n: int = 12) -> int:
    prev_row = [[1] for _ in range(n + 1)]
    for i in range(1, m + 1):
        cur_row = [[1]]
        for j in range(1, n + 1):
            cell = [0] * (i * j + 1)
            for u, c in enumerate(prev_row[j]):
                cell[u + j] += c
            for u, c in enumerate(cur_row[j - 1]):
                cell[u] += c
            cur_row.append(cell)
        prev_row = cur_row
    return sum(prev_row[n])


def _arrays() -> int:
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((32, 96))
    Y = rng.standard_normal((32, 96)) + 0.2
    return int((X[:, :, None] >= Y[:, None, :]).sum())


def unit() -> float:
    """Time one unit of reference work, in seconds."""
    start = time.perf_counter()
    _scalar_stats()
    _quadrature()
    _recurrence()
    _arrays()
    return time.perf_counter() - start
