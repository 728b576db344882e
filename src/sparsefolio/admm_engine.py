"""Consensus ADMM for L1-penalized variance under linear equality constraints.

The smooth piece (quadratic plus the two equalities) is carried by x and
solved exactly through the cached KKT factorization; the L1 piece is
carried by a copy z and solved by soft thresholding; the scaled dual y
ties them together.  Iteration k:

    x  <-  block solve of (C + rho*I, D) against (rho*z + y, b)
    z  <-  soft_threshold(x - y/rho, lam/rho)
    y  <-  y + rho*(z - x)

followed by the short-sale guard on lambda and, on its cadence, one
penalty update.  The primal residual is z - x and the dual residual is
-rho*(z - z_prev); both enter the relative stopping test below.

One finiteness check per iteration, on y_new, stands for checks on all
three new vectors.  The start and every accepted iterate are finite and rho
is positive, so a NaN in x_new or z_new stays NaN in z_new - x_new, an
infinity in x_new passes through the shrinkage into z_new and inf - inf is
NaN, and an infinity in z_new alone stays infinite in the difference.  Each
reaches y_new = y + rho*(z_new - x_new), where an overflow of its own is
caught too.  So y_new is finite exactly when all three are.

Vector norms are written as sqrt(v.dot(v)), which is the formula
numpy.linalg.norm uses for a 1-D float vector, without its argument
handling; the values are bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kkt import factorize, solve_x_update
from .lambda_controller import LambdaSchedule, maybe_adjust
from .model import Portfolio, PortfolioProblem, count_short_positions, objective_value
from .penalty import PenaltyConfig, PenaltyState, compute_ybar

TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 5000
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    lambda_schedule: LambdaSchedule = field(
        default_factory=lambda: LambdaSchedule.fixed(0.0))
    record_history: bool = False

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterateState:
    """One committed ADMM iterate; k = -1 denotes the initialization.

    rho and lam are the values iteration k ran with.  r_norm and d_norm are
    its primal and dual residual norms (inf at k = -1).  ybar, the dual
    estimate between the x-step and the z-step, is set only on iterations
    due a spectral rho update (bb, rbb) and is None otherwise.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    rho: float
    lam: float
    k: int
    r_norm: float = math.inf
    d_norm: float = math.inf
    ybar: Optional[np.ndarray] = None


@dataclass
class SolveHistory:
    """Per-iteration diagnostics; every list has one entry per iteration."""

    r_norm: list = field(default_factory=list)
    d_norm: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    objective: list = field(default_factory=list)


@dataclass(frozen=True)
class SolveResult:
    weights: Portfolio
    objective: float
    iterations: int
    termination: str
    short_count: int
    final_state: IterateState
    r_norm: float
    d_norm: float
    lambda_initial: float
    lambda_final: float
    lambda_adjustments: int
    rho_final: float
    consensus_gap: float
    history: Optional[SolveHistory]


def soft_threshold(u: np.ndarray, kappa: float) -> np.ndarray:
    """Shrink toward zero by kappa; magnitudes at or below kappa map to 0.0."""
    if kappa < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(u) * np.maximum(np.abs(u) - kappa, 0.0)


def z_update(x_new: np.ndarray, y: np.ndarray, rho: float,
             lam: float) -> np.ndarray:
    """Exact minimizer of lam*||z||_1 + (rho/2)||z - (x_new - y/rho)||^2."""
    return soft_threshold(x_new - y / rho, lam / rho)


def y_update(y: np.ndarray, rho: float, x_new: np.ndarray,
             z_new: np.ndarray) -> np.ndarray:
    return y + rho * (z_new - x_new)


def residual_norms(z_prev: np.ndarray, x: np.ndarray, z: np.ndarray,
                   rho: float) -> tuple[float, float]:
    """Primal and dual residual norms, ||z - x|| and rho*||z - z_prev||."""
    primal = z - x
    step = z - z_prev
    return math.sqrt(primal.dot(primal)), rho * math.sqrt(step.dot(step))


def stopping_check(r_norm: float, d_norm: float, x: np.ndarray, z: np.ndarray,
                   y: np.ndarray, tol: float) -> bool:
    """Relative primal/dual residual test.

    The dual comparator is floored at 1 so a dual vector near zero (e.g.
    the all-cash start) cannot demand an absolute-zero residual.
    """
    r_ok = r_norm <= tol * max(math.sqrt(x.dot(x)), math.sqrt(z.dot(z)))
    d_ok = d_norm <= tol * max(math.sqrt(y.dot(y)), 1.0)
    return r_ok and d_ok


def feasible_start(problem: PortfolioProblem) -> np.ndarray:
    """Minimum-norm solution of Dx = b; both constraints hold exactly."""
    D, b = problem.D, problem.b
    return D.T @ np.linalg.solve(D @ D.T, b)


def solve(problem: PortfolioProblem, cfg: SolverConfig,
          callback: Optional[Callable[[IterateState], None]] = None) -> SolveResult:
    """Run ADMM to the residual tolerance, the iteration cap, or a breakdown.

    Hitting max_iter is reported in the result, not raised.  In adaptive
    lambda mode, convergence is not declared on an iteration whose guard
    just moved lambda: the optimality target shifted, so the loop continues
    against the new weight.
    """
    pen_cfg = cfg.penalty
    schedule = cfg.lambda_schedule
    lam = schedule.lambda_current
    rho = pen_cfg.rho0
    x = feasible_start(problem)
    z = x.copy()
    y = np.zeros(problem.n)
    factorization = factorize(problem, rho)
    pen_state = PenaltyState(pen_cfg)
    spectral = pen_cfg.kind in ("bb", "rbb")
    phase = 1 % pen_cfg.nbar
    history = SolveHistory() if cfg.record_history else None
    state = IterateState(x=x, z=z, y=y, rho=rho, lam=lam, k=-1)
    termination = TERMINATION_MAX_ITER
    iterations = cfg.max_iter

    for k in range(cfg.max_iter):
        x_new = solve_x_update(factorization, z, y)
        z_new = z_update(x_new, y, rho, lam)
        y_new = y_update(y, rho, x_new, z_new)
        if not np.isfinite(y_new).all():
            termination = TERMINATION_NUMERICAL
            iterations = k
            break
        r_norm, d_norm = residual_norms(z, x_new, z_new, rho)
        update_due = k % pen_cfg.nbar == phase and k <= pen_cfg.freeze_after
        ybar = compute_ybar(y, rho, x_new, z) if update_due and spectral else None
        x, z, y = x_new, z_new, y_new
        state = IterateState(x=x, z=z, y=y, rho=rho, lam=lam, k=k,
                             r_norm=r_norm, d_norm=d_norm, ybar=ybar)

        lambda_moved = False
        if schedule.mode == "adaptive":
            adjusted = maybe_adjust(schedule, count_short_positions(x))
            lambda_moved = adjusted.lambda_current != schedule.lambda_current
            schedule = adjusted
            lam = schedule.lambda_current

        if history is not None:
            history.r_norm.append(r_norm)
            history.d_norm.append(d_norm)
            history.rho.append(rho)
            history.lam.append(lam)
            history.objective.append(objective_value(problem.C, x, lam))
        if callback is not None:
            callback(state)

        if not lambda_moved and stopping_check(r_norm, d_norm, x, z, y, cfg.tol):
            termination = TERMINATION_CONVERGED
            iterations = k + 1
            break

        if update_due:
            rho_new = pen_state.update(state)
            if rho_new != rho:
                rho = rho_new
                factorization = factorize(problem, rho)

    return SolveResult(
        weights=Portfolio(x),
        objective=objective_value(problem.C, x, lam),
        iterations=iterations,
        termination=termination,
        short_count=count_short_positions(x),
        final_state=state,
        r_norm=state.r_norm,
        d_norm=state.d_norm,
        lambda_initial=cfg.lambda_schedule.lambda_current,
        lambda_final=lam,
        lambda_adjustments=schedule.adjustments_made,
        rho_final=rho,
        consensus_gap=float(np.abs(x - z).max()),
        history=history,
    )
