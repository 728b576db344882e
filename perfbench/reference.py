"""Reference kernel: fixed work that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of per cent
over seconds to minutes, as neighbours come and go.  run.py pins the
benchmark to one CPU, and worker.py times this kernel before and after
every command of an untraced pass; a command's time divided by the mean of
the two samples around it is its time in reference units, which the host's
drift moves far less than the seconds themselves.

The kernel does the same kinds of work as the program, in the same mix of
interpreter and library time: parsing numbers from text, a Cholesky
factorisation, and an interpreted loop of small triangular solves, clips
and norms.  It uses only numpy and scipy, never sparsefolio, so no change to
the package can change the kernel, and its inputs are fixed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

ASSETS = 60
ROUNDS = 32
ITERATIONS = 120

_rng = np.random.default_rng(20250306)
_factors = _rng.standard_normal((2 * ASSETS, ASSETS))
_COVARIANCE = _factors.T @ _factors / (2 * ASSETS) + 0.1 * np.eye(ASSETS)
_MEANS = _rng.uniform(0.002, 0.018, ASSETS)
_LINES = tuple(",".join(map(repr, row))
               for row in _rng.standard_normal((40, ASSETS)).tolist())


def run() -> float:
    """Do the fixed work once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0.0
    for rnd in range(ROUNDS):
        data = np.array([[float(v) for v in line.split(",")] for line in _LINES])
        rho = 1.0 + rnd
        factor = scipy.linalg.cho_factor(_COVARIANCE + rho * np.eye(ASSETS))
        x = z = y = np.zeros(ASSETS)
        for _ in range(ITERATIONS):
            x = scipy.linalg.cho_solve(factor, _MEANS + rho * (z - y))
            z_old = z
            z = np.clip(x + y, 0.0, 0.5)
            y = y + x - z
            total += float(np.linalg.norm(x - z)) + float(np.linalg.norm(z - z_old))
        total += float(data.sum())
    if not np.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite value")
    return time.perf_counter() - start
