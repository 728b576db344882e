"""Exhaustive certificate-checked reference solver for small instances.

For each sign pattern of the weight vector (3^n of them, capped at n = 12)
the optimality conditions of the penalized problem reduce to a small linear
system on the pattern's support.  Solving every system, discarding
candidates whose signs or subgradient bounds fail, and keeping the best
verified objective yields the exact optimum, independent of any iterative
machinery.  Intended for testing, not production sizes.

The system's matrix depends only on the support, and the sign vector only
enters its right-hand side, so each support's block is solved once against
the right-hand sides of all its 2^k sign vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import PortfolioProblem, objective_value

MAX_ENUM_ASSETS = 12


class InfeasibleTargetError(ValueError):
    """No sign pattern produced a verifiable optimum."""


@dataclass(frozen=True)
class OracleResult:
    weights: np.ndarray
    objective: float
    multiplier: np.ndarray
    subgradient: np.ndarray
    unique: bool


def check_kkt(problem: PortfolioProblem, lam: float, x: np.ndarray,
              nu: np.ndarray, g: np.ndarray) -> float:
    """Worst violation across stationarity, feasibility, and the subgradient.

    The subgradient terms (|g_i| <= 1 off the support, g_i = sign(x_i) on
    it) only constrain anything when lam > 0; at lam = 0 the conditions
    reduce to the plain equality-constrained QP system.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    stationarity = float(np.abs(problem.C @ x + lam * g + problem.D.T @ nu).max())
    feasibility = float(np.abs(problem.D @ x - problem.b).max())
    worst = max(stationarity, feasibility)
    if lam > 0:
        on_support = x != 0
        if on_support.any():
            worst = max(worst, float(np.abs(g[on_support] - np.sign(x[on_support])).max()))
        off_support = ~on_support
        if off_support.any():
            worst = max(worst, max(float(np.abs(g[off_support]).max()) - 1.0, 0.0))
    return worst


def _solve_unpenalized(problem: PortfolioProblem, kkt_tol: float) -> OracleResult:
    n = problem.n
    K = np.zeros((n + 2, n + 2))
    K[:n, :n] = problem.C
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    solution = np.linalg.solve(K, np.concatenate([np.zeros(n), problem.b]))
    x, nu = solution[:n], solution[n:]
    g = np.zeros(n)
    if check_kkt(problem, 0.0, x, nu, g) > kkt_tol:
        raise InfeasibleTargetError("equality-constrained QP system did not verify")
    return OracleResult(weights=x, objective=objective_value(problem.C, x, 0.0),
                        multiplier=nu, subgradient=g, unique=True)


def enumerate_solve(problem: PortfolioProblem, lam: float,
                    kkt_tol: float = 1e-9,
                    tie_tol: float = 1e-10) -> OracleResult:
    """Globally optimal weights by sign-pattern enumeration.

    Candidates are scanned in lexicographic pattern order and the first
    strictly-best objective wins, so results are permutation-stable.  The
    ``unique`` flag is cleared when a different support ties the winning
    objective within ``tie_tol``.
    """
    if problem.n > MAX_ENUM_ASSETS:
        raise ValueError(
            f"enumeration is exponential; capped at n = {MAX_ENUM_ASSETS}, "
            f"got n = {problem.n}"
        )
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0:
        return _solve_unpenalized(problem, kkt_tol)

    C, D, b = problem.C, problem.D, problem.b
    n = problem.n
    # a pattern's place in the lexicographic order of sign tuples over
    # (-1, 0, 1): digits -1, 0, 1 -> 0, 1, 2
    place = 3 ** np.arange(n - 1, -1, -1)
    # the 2^k sign vectors of a k-asset support, one per row, in that order
    sign_vectors = {k: np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
                    for k in range(2, n + 1)}
    candidates = []
    for mask in itertools.product((False, True), repeat=n):
        support = np.array(mask)
        k = int(support.sum())
        if k < 2:
            continue
        A = np.zeros((k + 2, k + 2))
        A[:k, :k] = C[np.ix_(support, support)]
        A[:k, k:] = D[:, support].T
        A[k:, :k] = D[:, support]
        signs = sign_vectors[k]
        rhs = np.empty((k + 2, len(signs)))
        rhs[:k] = -lam * signs.T
        rhs[k:] = b[:, None]
        try:
            solutions = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            continue
        consistent = np.all(signs.T * solutions[:k] > 0, axis=0)
        off_support_place = int(place[~support].sum())
        for j in np.flatnonzero(consistent):
            x_support, nu = solutions[:k, j], solutions[k:, j]
            x = np.zeros(n)
            x[support] = x_support
            g = np.zeros(n)
            g[support] = signs[j]
            if k < n:
                g[~support] = -(C @ x + D.T @ nu)[~support] / lam
            if check_kkt(problem, lam, x, nu, g) > kkt_tol:
                continue
            order = off_support_place + int((signs[j] + 1) @ place[support])
            candidates.append((objective_value(C, x, lam), order,
                               frozenset(np.flatnonzero(support).tolist()),
                               x, nu, g))

    if not candidates:
        raise InfeasibleTargetError(
            "no sign pattern satisfies the optimality conditions; "
            "the target return may be unattainable"
        )
    # the first strictly-best objective in pattern order
    best = min(candidates, key=lambda cand: cand[:2])
    unique = not any(
        cand[2] != best[2] and abs(cand[0] - best[0]) <= tie_tol
        for cand in candidates
    )
    return OracleResult(weights=best[3], objective=best[0], multiplier=best[4],
                        subgradient=best[5], unique=unique)

