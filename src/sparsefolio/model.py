"""Problem assembly and evaluation for constrained L1-penalized variance.

The optimization target is (1/2) x'Cx + lam*||x||_1 subject to two linear
equalities: the portfolio return hits a target (x'mu = e) and the weights
sum to one (x'1 = 1).  Both rows are stacked into a single 2 x n
constraint matrix so downstream solvers see one system Dx = b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market_data import AssetStats

# A weight at or above -ZERO_TOL is not a short position.
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class PortfolioProblem:
    """The model's inputs; the constraint system D x = b is derived from them."""

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
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            raise ValueError("covariance is not positive definite") from None
        for name, value in (("C", C), ("mu", mu), ("D", D),
                            ("b", np.array([self.e, 1.0])), ("n", n)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Portfolio:
    """A finite weight vector."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.isfinite(weights).all():
            raise ValueError("weights contain non-finite entries")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def build_problem(stats: AssetStats, e: float,
                  allow_out_of_range: bool = False) -> PortfolioProblem:
    """The problem for the estimated moments and the target return e.

    The target e must lie between the smallest and largest asset mean unless
    allow_out_of_range is set.  PortfolioProblem rejects all-equal means.
    """
    mu = stats.mu
    if not allow_out_of_range and not (mu.min() <= e <= mu.max()):
        raise ValueError(
            f"target return {e} outside the attainable mean range "
            f"[{mu.min()}, {mu.max()}] (pass allow_out_of_range to override)"
        )
    return PortfolioProblem(C=stats.C, mu=mu, e=float(e))


def objective_value(C: np.ndarray, weights: np.ndarray, lam: float) -> float:
    return 0.5 * float(weights @ C @ weights) + lam * float(np.abs(weights).sum())


def evaluate_objective(problem: PortfolioProblem, portfolio: Portfolio,
                       lam: float) -> float:
    if portfolio.n != problem.n:
        raise ValueError(f"portfolio has {portfolio.n} weights, problem has {problem.n}")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return objective_value(problem.C, portfolio.weights, lam)


def constraint_violation(problem: PortfolioProblem,
                         portfolio: Portfolio) -> tuple[float, float]:
    """Absolute miss of the return target and of the budget, as a pair."""
    if portfolio.n != problem.n:
        raise ValueError(f"portfolio has {portfolio.n} weights, problem has {problem.n}")
    w = portfolio.weights
    return (abs(float(w @ problem.mu) - problem.e), abs(float(w.sum()) - 1.0))


def count_short_positions(weights: np.ndarray) -> int:
    """Number of entries of a weight vector strictly below -ZERO_TOL."""
    return int(np.count_nonzero(weights < -ZERO_TOL))
