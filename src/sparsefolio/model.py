"""Problem assembly and evaluation for constrained L1-penalized variance.

The optimization target is (1/2) x'Cx + lam*||x||_1 subject to two linear
equalities: the portfolio return hits a target (x'mu = e) and the weights
sum to one (x'1 = 1).  Both rows are stacked into a single 2 x n
constraint matrix so downstream solvers see one system Dx = b.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

# A weight at or above -ZERO_TOL is not a short position.
ZERO_TOL = 1e-9

_potrf = get_lapack_funcs("potrf", dtype=np.float64)


@dataclass(frozen=True)
class PortfolioProblem:
    """The model's inputs; the constraint system D x = b is derived from them.

    Every solve, factorization and oracle call takes one, so this is the one
    place the covariance is checked: finite, symmetric to 1e-12, positive
    definite.  C is stored exactly symmetric, as 0.5*(C + C') where it is
    not; the size of the asymmetry is computed only then.  Positive
    definiteness is one LAPACK potrf on a copy of the stored C, whose
    factor is discarded.
    """

    C: np.ndarray
    mu: np.ndarray
    e: float
    D: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        n = mu.size
        if mu.shape != (n,) or C.shape != (n, n):
            raise ValueError("mean/covariance shapes do not match asset count")
        if not math.isfinite(self.e):
            raise ValueError(f"target return e must be finite, got {self.e}")
        D = np.vstack([mu, np.ones(n)])
        # With C positive definite the x-step system is singular exactly when
        # D has rank below 2: fewer than two assets, or all means equal.
        spectrum = np.linalg.svd(D, compute_uv=False)
        if spectrum.size < 2 or spectrum[1] <= 1e-12 * spectrum[0]:
            raise ValueError(
                "the return constraint duplicates the budget constraint "
                "(all asset means are equal); the problem is degenerate"
            )
        # potrf reads one triangle only and lets NaN through, so finiteness
        # and symmetry are checked first.
        if not np.isfinite(C).all():
            raise ValueError("covariance has non-finite entries")
        if not np.array_equal(C, C.T):
            if np.abs(C - C.T).max() > 1e-12:
                raise ValueError("covariance is not symmetric")
            C = 0.5 * (C + C.T)
        if _potrf(C, lower=True, clean=False)[1]:
            raise ValueError("covariance is not positive definite")
        for name, value in (("C", C), ("mu", mu), ("D", D),
                            ("b", np.array([self.e, 1.0])), ("n", n)):
            object.__setattr__(self, name, value)

    def at(self, e: float) -> PortfolioProblem:
        """The problem at target return e, sharing C, mu and D unchecked."""
        if not math.isfinite(e):
            raise ValueError(f"target return e must be finite, got {e}")
        other = copy.copy(self)
        object.__setattr__(other, "e", float(e))
        object.__setattr__(other, "b", np.array([float(e), 1.0]))
        return other


def build_problem(mu: np.ndarray, C: np.ndarray, e: float) -> PortfolioProblem:
    """The problem for the mean mu, the covariance C and the target return e.

    PortfolioProblem checks the moments: shapes that match, a positive
    definite C, and means that are not all equal.  Any finite e is a
    well-posed target, as D has rank 2, also one outside the range of the
    asset means; only ``sparsefolio solve --target-return`` asks for e
    within that range.
    """
    return PortfolioProblem(C=C, mu=mu, e=float(e))


def objective_value(C: np.ndarray, weights: np.ndarray, lam: float) -> float:
    return 0.5 * float(weights @ C @ weights) + lam * float(np.abs(weights).sum())


def count_short_positions(weights: np.ndarray) -> int:
    """Number of entries of a weight vector strictly below -ZERO_TOL."""
    return int(np.count_nonzero(weights < -ZERO_TOL))
