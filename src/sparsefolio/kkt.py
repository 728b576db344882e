"""Direct factorization of the equality-constrained quadratic x-step.

Each ADMM x-step minimizes (1/2) x'Cx + (rho/2)||x - v||^2 subject to
Dx = b, whose optimality system is the symmetric indefinite block matrix

    [ C + rho*I   D' ] [x ]   [ rho*z + y ]
    [ D           0  ] [nu] = [ b         ]

We factor the full (n+2) x (n+2) block once per rho with partial-pivot LU
and reuse it for every solve at that rho; a Schur-complement route would
be marginally cheaper but needlessly splits the accuracy story.  The loop
reads only x; the multiplier nu is solved for and dropped.

The block is built in Fortran order and factored in place by the float64
LAPACK ``getrf``; each solve calls ``getrs`` on the kept factors.  Both are
looked up once, at import.  These are the routines ``lu_factor`` and
``lu_solve`` call, on the same arrays, so the results are bitwise theirs,
without their copies, finiteness scans and dispatch.  PortfolioProblem has
checked C and mu and factorize checks rho; the right-hand side is finite
unless rho*z + y overflows, and then the engine's test on the next iterate
ends the solve.

Each factorization also owns a scratch right-hand side of length n+2 and
its rho as an n-vector.  factorize writes b into the scratch's tail once; a
solve writes rho*z + y into its head in place (one multiply and one add,
the same IEEE operations as the expression) and passes the whole vector to
``getrs`` without ``overwrite_b``, so LAPACK solves in a fresh copy: the
tail keeps b, and the returned x shares no memory with the scratch or with
an earlier x.
Because of the scratch, a factorization belongs to one run at a time and
must not be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import PortfolioProblem

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass(frozen=True)
class KktFactorization:
    """LU factors of the block system, with what its solves need.

    rho_vector is the rho the block was built at, as an n-vector.  rhs is
    the solves' scratch right-hand side, whose tail is the right-hand side
    b of the equality rows, so every solve uses the rho and b it was
    factored for.  head is the view of the first n entries of rhs; solves
    overwrite it, so one factorization serves one thread.
    """

    rho_vector: np.ndarray = field(repr=False)
    n: int
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
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
    lu, piv, info = _getrf(K, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info} of the KKT block")
    rhs = np.empty(n + 2)
    rhs[n:] = problem.b
    return KktFactorization(rho_vector=np.full(n, float(rho)), n=n, lu=lu,
                            piv=piv, rhs=rhs, head=rhs[:n])


def solve_x_update(factorization: KktFactorization, z: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The x-step: exactly feasible (Dx = b) minimizer for the current (z, y)."""
    head = factorization.head
    np.multiply(z, factorization.rho_vector, out=head)
    np.add(head, y, out=head)
    solution, info = _getrs(factorization.lu, factorization.piv,
                            factorization.rhs)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution[:factorization.n]
