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
dispatch.  PortfolioProblem has checked C and mu and factorize checks rho;
the right-hand side is finite unless rho*z + y overflows, and then the
engine's test on the next iterate ends the solve.

Each factorization also owns a scratch right-hand side of length n+2 and
its rho as an n-vector.  factorize writes b into the scratch's tail once; a
solve writes rho*z + y into its head in place (one multiply and one add,
the same IEEE operations as the expression) and passes the whole vector to
``getrs`` without ``overwrite_b``, so LAPACK solves in a fresh copy: the
tail keeps b, and the returned x shares no memory with the scratch or with
an earlier x.  The multiply takes the factorization's own rho vector, not
the float; the products are the same.
Because of the scratch, a factorization belongs to one run at a time and
must not be shared across threads.
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

    Also holds the rho the block was built at, as a float and as the
    n-vector rho_vector, and the solves' scratch right-hand side rhs, whose
    tail is the right-hand side b of the equality rows, so every solve uses
    the rho and b it was factored for.  head is the view of the first n
    entries of rhs; solves overwrite it, so one factorization serves one
    thread.
    """

    rho: float
    rho_vector: np.ndarray = field(repr=False)
    n: int
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    getrs: Callable = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)


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
    rhs = np.empty(n + 2)
    rhs[n:] = problem.b
    rho = float(rho)
    return KktFactorization(rho=rho, rho_vector=np.full(n, rho), n=n, lu=lu,
                            piv=piv, getrs=getrs, rhs=rhs, head=rhs[:n])


def _solve(factorization: KktFactorization, z: np.ndarray,
           y: np.ndarray) -> np.ndarray:
    # (x, nu) in a new array; the scratch head gets rho*z + y, its tail holds b
    head = factorization.head
    np.multiply(z, factorization.rho_vector, out=head)
    np.add(head, y, out=head)
    solution, info = factorization.getrs(factorization.lu, factorization.piv,
                                         factorization.rhs)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution


def solve_with_multiplier(factorization: KktFactorization, z: np.ndarray,
                          y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the block system against (rho*z + y, b), returning x and the multiplier.

    rho and b are the factorization's own.  The multiplier is diagnostic
    only; the ADMM loop consumes just x.
    """
    solution = _solve(factorization, z, y)
    return solution[:factorization.n], solution[factorization.n:]


def solve_x_update(factorization: KktFactorization, z: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The x-step: exactly feasible (Dx = b) minimizer for the current (z, y)."""
    return _solve(factorization, z, y)[:factorization.n]
