"""Direct factorization of the equality-constrained quadratic x-step.

Each ADMM x-step minimizes (1/2) x'Cx + (rho/2)||x - v||^2 subject to
Dx = b, whose optimality system is the symmetric indefinite block matrix

    [ C + rho*I   D' ] [x ]   [ rho*z + y ]
    [ D           0  ] [nu] = [ b         ]

We factor the full (n+2) x (n+2) block once per rho with partial-pivot LU
and reuse it for every solve at that rho; a Schur-complement route would
be marginally cheaper but needlessly splits the accuracy story.

The block is built in Fortran order and factored in place by LAPACK
``getrf``; each solve calls ``getrs`` on the kept factors.  These are the
routines ``lu_factor`` and ``lu_solve`` call, on the same arrays, so the
results are bitwise theirs, without their copies, finiteness scans and
dispatch, which cost about 20 us of a 24 us x-step at n=10 (2.0 GHz Xeon,
OpenBLAS on one thread, scipy 1.17).  PortfolioProblem has checked C and
mu and factorize checks rho; the right-hand side is finite unless
rho*z + y overflows, and then the engine's test on the next iterate ends
the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import PortfolioProblem


@dataclass(frozen=True)
class KktFactorization:
    """LU factors of the block system and the LAPACK getrs that solves with them.

    Also holds the rho the block was built at and the right-hand side b of
    the equality rows, so every solve uses the rho and b it was factored for.
    """

    rho: float
    n: int
    b: np.ndarray = field(repr=False)
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    getrs: Callable = field(repr=False)


def factorize(problem: PortfolioProblem, rho: float) -> KktFactorization:
    """Assemble and factor the block matrix for a positive, finite rho.

    The matrix is nonsingular: C is positive definite and PortfolioProblem
    guarantees that D has rank 2.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    n = problem.n
    K = np.zeros((n + 2, n + 2), order="F")
    # C + 0.0, not a copy: a -0.0 entry becomes 0.0, as in C + rho*I
    np.add(problem.C, 0.0, out=K[:n, :n])
    K.flat[:n * (n + 3):n + 3] += rho  # the diagonal of the C block
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (K,))
    lu, piv, info = getrf(K, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info} of the KKT block")
    return KktFactorization(rho=float(rho), n=n, b=problem.b, lu=lu, piv=piv,
                            getrs=getrs)


def solve_with_multiplier(factorization: KktFactorization, z: np.ndarray,
                          y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the block system against (rho*z + y, b), returning x and the multiplier.

    rho and b are the factorization's own.  The multiplier is diagnostic
    only; the ADMM loop consumes just x.
    """
    rhs = np.concatenate([factorization.rho * z + y, factorization.b])
    solution, info = factorization.getrs(factorization.lu, factorization.piv,
                                         rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution[:factorization.n], solution[factorization.n:]


def solve_x_update(factorization: KktFactorization, z: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The x-step: exactly feasible (Dx = b) minimizer for the current (z, y)."""
    rhs = np.concatenate([factorization.rho * z + y, factorization.b])
    solution, info = factorization.getrs(factorization.lu, factorization.piv,
                                         rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution[:factorization.n]
