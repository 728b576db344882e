"""Direct factorization of the equality-constrained quadratic x-step.

Each ADMM x-step minimizes (1/2) x'Cx + (rho/2)||x - v||^2 subject to
Dx = b, whose optimality system is the symmetric indefinite block matrix

    [ C + rho*I   D' ] [x ]   [ rho*z + y ]
    [ D           0  ] [nu] = [ b         ]

We factor the full (n+2) x (n+2) block once per rho with partial-pivot LU
and reuse it for every solve at that rho; a Schur-complement route would
be marginally cheaper but needlessly splits the accuracy story.

Each solve calls the LAPACK ``getrs`` routine kept with the factors instead
of ``scipy.linalg.lu_solve``.  At n=10 the back-solve itself takes about
2 us, while lu_solve's wrapper (batch dispatch, ``asarray_chkfinite``, the
LAPACK lookup) adds about 20 us to every ADMM iteration (2.0 GHz Xeon,
OpenBLAS on one thread, scipy 1.17).  Its finiteness check
guards nothing here: z and y passed the engine's check on the previous
iteration, so the right-hand side is finite unless rho*z + y overflows, and
then the engine's check on the next iterate ends the solve as a numerical
failure.  The arithmetic is the same routine on the same arrays, so the
solution is bitwise identical to lu_solve's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

from .model import PortfolioProblem


@dataclass(frozen=True)
class KktFactorization:
    """LU factors of the block system and the LAPACK getrs that solves with them.

    Valid only for the rho they were built at.
    """

    rho: float
    n: int
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    getrs: Callable = field(repr=False)


def factorize(problem: PortfolioProblem, rho: float) -> KktFactorization:
    """Assemble and factor the block matrix for a given penalty value.

    The matrix is nonsingular: C is positive definite and PortfolioProblem
    guarantees that D has rank 2.

    Parameters
    ----------
    problem : PortfolioProblem
    rho : float
        Positive penalty parameter; appears only on the diagonal block.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = problem.n
    K = np.zeros((n + 2, n + 2))
    K[:n, :n] = problem.C + rho * np.eye(n)
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(K)
    getrs, = get_lapack_funcs(("getrs",), (lu,))
    return KktFactorization(rho=float(rho), n=n, lu=lu, piv=piv, getrs=getrs)


def solve_with_multiplier(factorization: KktFactorization, z: np.ndarray,
                          y: np.ndarray, rho: float,
                          b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the block system, returning both x and the constraint multiplier.

    The multiplier is diagnostic only; the ADMM loop consumes just x.
    """
    if rho != factorization.rho:
        raise ValueError(
            f"factorization was built for rho={factorization.rho}, got rho={rho}"
        )
    n = factorization.n
    rhs = np.concatenate([rho * z + y, b])
    solution, info = factorization.getrs(factorization.lu, factorization.piv,
                                         rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution[:n], solution[n:]


def solve_x_update(factorization: KktFactorization, z: np.ndarray, y: np.ndarray,
                   rho: float, b: np.ndarray) -> np.ndarray:
    """The x-step: exactly feasible (Dx = b) minimizer for the current (z, y)."""
    x, _ = solve_with_multiplier(factorization, z, y, rho, b)
    return x
