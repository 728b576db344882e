"""Independent references the tests compare the solver against.

enumerate_solve is an exhaustive, certificate-checked reference solver for
small instances.  For each sign pattern of the weight vector (3^n of them,
capped at n = 12) the optimality conditions of the penalized problem reduce
to a small linear system on the pattern's support.  Solving every system,
discarding candidates whose signs or subgradient bounds fail, and keeping
the best verified objective yields the exact optimum, independent of any
iterative machinery.

The system's matrix depends only on the support, and the sign vector only
enters its right-hand side, so each support's block is solved once, by
kkt.solve_support, against the right-hand sides of all its 2^k sign
vectors.  A one-asset support's block is singular; its candidate x = e_j,
where mu_j = e, takes its multipliers from kkt.single_asset_multipliers.

soft_threshold is the shrinkage formula the engine's z-step must match
bitwise, and fixed_rho_reference a textbook fixed-rho ADMM loop with a
fresh dense KKT solve per iteration.  kkt_violation rebuilds a
certificate from the weights alone, to check a certified solve without
trusting the certificate the solver found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from sparsefolio.admm_engine import feasible_start
from sparsefolio.kkt import check_kkt, single_asset_multipliers, solve_support
from sparsefolio.model import PortfolioProblem, objective_value

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


def _solve_unpenalized(problem: PortfolioProblem, kkt_tol: float) -> OracleResult:
    n = problem.n
    solution = solve_support(problem, np.ones(n, dtype=bool), np.zeros(n))
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

    C, D = problem.C, problem.D
    n = problem.n
    # a pattern's place in the lexicographic order of sign tuples over
    # (-1, 0, 1): digits -1, 0, 1 -> 0, 1, 2
    place = 3 ** np.arange(n - 1, -1, -1)
    # the 2^k sign vectors of a k-asset support, one per row, in that order
    sign_vectors = {k: np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
                    for k in range(1, n + 1)}
    candidates = []
    for mask in itertools.product((False, True), repeat=n):
        support = np.array(mask)
        k = int(support.sum())
        if k == 0:
            continue
        signs = sign_vectors[k]
        if k == 1:
            # x = e_j for either sign; the sign test keeps s_j = +1 only
            asset = int(np.flatnonzero(support)[0])
            nu = single_asset_multipliers(problem, lam, asset)
            if nu is None:
                continue
            solutions = np.repeat(np.append(1.0, nu)[:, None], 2, axis=1)
        else:
            try:
                solutions = solve_support(problem, support, -lam * signs.T)
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


def kkt_violation(problem: PortfolioProblem, lam: float, x: np.ndarray) -> float:
    """check_kkt at x, with nu and g rebuilt from x alone.

    On x's support S, g = sign(x) and the stationarity rows
    C_S x + lam*g_S + D_S' nu = 0 give nu by least squares; off S, g is
    what the same rows leave, divided by lam (0 at lam = 0, where check_kkt
    then asks stationarity of every row).
    """
    support = x != 0
    g = np.sign(x)
    gradient = problem.C @ x + lam * g
    nu = np.linalg.lstsq(problem.D[:, support].T, -gradient[support],
                         rcond=None)[0]
    if lam > 0:
        g[~support] = -(gradient + problem.D.T @ nu)[~support] / lam
    return check_kkt(problem, lam, x, nu, g)


def soft_threshold(u: np.ndarray, kappa: float) -> np.ndarray:
    """Shrink toward zero by kappa; magnitudes at or below kappa map to 0.0.

    Equal under ==, NaN for NaN, to sign(u) * max(|u| - kappa, 0) in fewer
    ufuncs; only zero signs differ (negative u in the dead zone gives +0.0).
    """
    if kappa < 0:
        raise ValueError("threshold must be nonnegative")
    return u - np.minimum(np.maximum(u, -kappa), kappa)


def fixed_rho_reference(problem: PortfolioProblem, lam: float, rho: float,
                        iters: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The textbook scaled-form ADMM loop at a fixed rho, for iters iterations.

    Written apart from the engine: u is the scaled dual (the engine's y is
    -rho*u), the x-step is a fresh dense solve of the full KKT block each
    iteration, and the z-step is sign(v) * max(|v| - lam/rho, 0).  Starts
    where the engine does and returns (x, z, u) after each iteration.
    """
    n = problem.n
    x = feasible_start(problem)
    z = x.copy()
    u = np.zeros(n)
    K = np.zeros((n + 2, n + 2))
    K[:n, :n] = problem.C + rho * np.eye(n)
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    iterates = []
    for _ in range(iters):
        x = np.linalg.solve(K, np.concatenate([rho * (z - u), problem.b]))[:n]
        v = x + u
        z = np.sign(v) * np.maximum(np.abs(v) - lam / rho, 0.0)
        u = u + x - z
        iterates.append((x, z, u))
    return iterates
