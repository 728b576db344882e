"""Consensus ADMM for L1-penalized variance under linear equality constraints.

The smooth piece (quadratic plus the two equalities) is carried by x and
solved exactly through the cached KKT factorization; the L1 piece is
carried by a copy z and solved by soft thresholding; the scaled dual y
ties them together.  Iteration k:

    x  <-  block solve of (C + rho*I, D) against (rho*z + y, b)
    z  <-  u - min(max(u, -lam/rho), lam/rho),  u = x - y/rho
    y  <-  y + rho*(z - x)

followed, on each iteration PenaltyState.due lists, by one penalty update
(PenaltyState owns the cadence; under fixed rho none is due).  The primal
residual is z - x and the dual residual is -rho*(z - z_prev); both enter
the relative stopping test below.  One run keeps lambda fixed.  In
adaptive lambda mode (a schedule with an allowance sn) the short-sale
guard sits outside the runs: it counts the shorts of a converged run's z,
which soft thresholding makes exactly sparse, and when it raises lambda
the next run starts cold at the new value, reusing the KKT factorization
at rho0 that the first run started from.  solve resolves rho0 once, by
penalty.initial_rho (cfg.penalty.rho0 when set, else the kind's start),
unless its caller hands it that factorization, made once for all targets
of a C and mu.  A rho change back to the rho the run just left (rb's
doubling and halving) or to rho0 takes the LU kept there.

A run also ends, converged, when a KKT certificate holds (the polish of
Stellato et al. 2020, OSQP, section 5).  ADMM finds the optimal support
in finitely many iterations (Liang, Fadili and Peyre 2017), and long
before that z's support is one or two assets from it.  kkt.Finish starts
from z's support and signs and corrects them by an active-set finish of
a bounded number of block solves: a solution that keeps its signs, with
a subgradient in [-1, 1] off the support and check_kkt within KKT_TOL,
is the optimum, as those conditions are sufficient for this convex
problem.  The run's last iterate becomes that optimum: x = z = the
certified x, and y = -lam*g, its dual, which makes the iterate a fixed
point of the three steps.  Attempts are rationed by the work they model,
counted in O(n^2) x-steps and decided without a timer (kkt.finish_steps):
a finish's first block solve on z's k-asset support costs
max(kkt.attempt_floor(n), k^3/(3n^2)), where the floor min(ceil(n/3), 4)
is 4, the interpreter cost of an attempt, from n = 10 on; each further
step costs kkt.STEP_COST = 2, as it updates one kept factorization in
O(n^2) (kkt).
The checkpoints are the half-octave iterations round(attempt_floor(n) *
2^(j/2)), j = 0, 1, 2, ... (certificate_checkpoints): 4, 6, 8, 11, 16,
23, 32, ... from n = 10 on.  They hold the octave ones attempt_floor(n) *
2^j, so a run ends no later than it would on those, and nearer the
iteration where ADMM finds the support.  A run that never certifies meets
about 2 log2(max_iter) of them; a checkpoint tries only when z's sign
pattern is the previous iteration's, as the support is then settling.  An
iteration that passes the residual test tries once too, so a converged
run carries certified weights, exactly sparse, wherever a certificate
holds.  An attempt at iteration k gets the steps that the run's own work
pays for: its k + 1 x-steps, and at the residual stop also (n + 2)/3 per
rho change, a refactorization's price in x-steps, kept LU or not; the run
ends there either way, so that budget cannot delay it.  A checkpoint that
cannot pay for one step is skipped.  So an attempt never spends more than
the run has done, and as each checkpoint's budget is about 2^(-1/2) of
the next one's, all the checkpoint attempts of a run spend at most about
1/(1 - 2^(-1/2)) = 3.4 times its x-steps.  Neither kind of attempt
retries the pattern of the last failed attempt unless its budget has
grown since: a pattern a few steps short of a certificate gets it at the
next checkpoint, and the retry goes on from where the failed finish
stopped (kkt.Finish.run(steps) on the larger budget), so it makes only
the steps that the larger budget adds.  Each checkpoint could already
spend its full budget on a new pattern, so the retry leaves the
worst-case work of a run as it was.
SolveResult.finish counts the attempts, the failed ones, the fresh
factorizations of a support block and the steps solved on a kept one.
A run that no certificate ends keeps its iterates, iteration count and
termination bitwise.

An iteration builds its IterateState only when something reads it: the
callback, a due penalty update, or the return of the run.  With a
callback, the run returns the very state the callback last received;
without one, the state built at the end carries the same values.

One finiteness test per iteration, on ||z_new - x_new||, stands for tests
on all three new vectors; z_new - x_new is formed once and also feeds the
dual step.  The start and every accepted iterate are finite.  A NaN in
x_new or z_new stays NaN in the difference, an infinity in x_new passes
the shrinkage into z_new and inf - inf is NaN (each run silences numpy's
invalid-value warning, as this test reports the failure), and an infinity
in z_new alone stays infinite.  Conversely, a finite norm bounds each entry
of the difference by 1.4e154 and rho is at most 1e8, so y_new, starting
from y = 0, stays finite for 1e146 iterations.  A squared norm that
overflows although every entry is finite ends the solve as a numerical
failure too.

Everything the steps need that depends only on (rho, lam) is built once
per pair, not once per iteration.  The x- and y-steps take rho as the
n-vector the KKT factorization keeps (KktFactorization.rho_vector); the
z-step takes kappa = lam/rho and -kappa as n-vectors plus one scratch
vector (shrink_constants).  A run builds them at its start and again right
after each rho change; a lambda move starts a new run, which builds its
own.  So every ufunc of the three steps has array operands only, and each
step makes the same IEEE operations in the same order as its scalar
formula: the iterates are bitwise those of the scalar steps.  Everything
outside the steps keeps the float rho: the IterateState's rho and lam,
the residual norms, ybar, the penalty update and SolveResult.rho_final.

Vector norms are written as sqrt(v.dot(v)), which is the formula
numpy.linalg.norm uses for a 1-D float vector, without its argument
handling; the values are bitwise the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .kkt import (Finish, FinishCounts, KktFactorization, attempt_floor,
                  factorize, finish_steps, solve_x_update)
from .lambda_controller import MAX_ADJUSTMENTS, LambdaSchedule, maybe_adjust
from .model import PortfolioProblem, count_short_positions, objective_value
from .penalty import PenaltyConfig, PenaltyState, compute_ybar, initial_rho

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

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class IterateState(NamedTuple):
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


@dataclass(frozen=True)
class SolveResult:
    """How a solve ended.  certified says a KKT certificate ended its last
    run, so weights is that run's exact optimum and exactly sparse.  finish
    counts the certificate attempts of all runs, the failed ones, the fresh
    support-block factorizations and the steps solved on a kept one."""

    weights: np.ndarray
    objective: float
    iterations: int
    termination: str
    final_state: IterateState
    lambda_final: float
    lambda_adjustments: int
    rho_final: float
    certified: bool
    finish: FinishCounts


def shrink_constants(lam: float, rho: float,
                     n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z_update's kappa, -kappa and scratch for (rho, lam), as n-vectors.

    kappa is the float lam/rho, so the vectors hold the very thresholds
    of the scalar shrinkage u - min(max(u, -lam/rho), lam/rho).
    """
    kappa = lam / rho
    return np.full(n, kappa), np.full(n, -kappa), np.empty(n)


def z_update(x_new: np.ndarray, y: np.ndarray, rho_vector: np.ndarray,
             kappa: np.ndarray, neg_kappa: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """Exact minimizer of lam*||z||_1 + (rho/2)||z - (x_new - y/rho)||^2.

    rho_vector is rho as an n-vector and kappa, neg_kappa, scratch come
    from shrink_constants(lam, rho, n).  With u = x_new - y/rho, the result
    is bitwise that of the scalar shrinkage u - min(max(u, -lam/rho),
    lam/rho) at the float lam/rho, zero signs and NaNs included, as it
    makes the same IEEE operations in the same order.  Under ==, and NaN
    for NaN, that equals sign(u) * max(|u| - lam/rho, 0); only the signs
    of zeros differ.
    scratch is overwritten; the returned z is a new array.
    """
    u = x_new - y / rho_vector
    np.maximum(u, neg_kappa, out=scratch)
    np.minimum(scratch, kappa, out=scratch)
    return u - scratch


def y_update(y: np.ndarray, rho: np.ndarray | float,
             primal: np.ndarray) -> np.ndarray:
    """y + rho*primal; rho may be the float or the n-vector of it, for the
    same products."""
    return y + rho * primal


def residual_norms(primal: np.ndarray, step: np.ndarray,
                   rho: float) -> tuple[float, float]:
    """||primal|| and rho*||step||, for primal = z - x and step = z - z_prev."""
    return math.sqrt(primal.dot(primal)), rho * math.sqrt(step.dot(step))


def stopping_check(r_norm: float, d_norm: float, x: np.ndarray, z: np.ndarray,
                   y: np.ndarray, tol: float) -> bool:
    """Relative primal/dual residual test.

    The dual comparator is floored at 1 so a dual vector near zero (e.g.
    the all-cash start) cannot demand an absolute-zero residual.

    The dual half is tested first: in a run that does not converge it is
    the half that fails, so the primal half's two norms go uncomputed.
    The order does not change the result.  The engine calls this only with
    a finite r_norm, which makes x, z and y finite, so neither comparison
    involves a NaN and the two halves commute under ``and``.
    """
    return (d_norm <= tol * max(math.sqrt(y.dot(y)), 1.0)
            and r_norm <= tol * max(math.sqrt(x.dot(x)), math.sqrt(z.dot(z))))


def feasible_start(problem: PortfolioProblem) -> np.ndarray:
    """Minimum-norm solution of Dx = b; both constraints hold exactly."""
    D, b = problem.D, problem.b
    return D.T @ np.linalg.solve(D @ D.T, b)


def certificate_checkpoints(floor: int) -> Iterator[int]:
    """The iterations at which a run tries a certificate: round(floor *
    2^(j/2)) for j = 0, 1, 2, ..., each once, in increasing order.  The even
    j give floor * 2^(j/2) exactly."""
    last = 0
    for j in itertools.count():
        checkpoint = round(floor * 2 ** (j / 2))
        if checkpoint > last:
            yield checkpoint
            last = checkpoint


def _run(problem: PortfolioProblem, cfg: SolverConfig, lam: float,
         start: KktFactorization, budget: int,
         callback: Optional[Callable[[IterateState], None]],
         counts: FinishCounts) -> tuple[IterateState, str, int, float, bool]:
    """One ADMM run at a fixed lam from the cold start, for at most budget
    iterations, from rho0 on start, the LU there, whose scratch takes
    problem's b; it keeps the LU at the rho it left last.  Iteration k is
    due an update when k equals the value last drawn from PenaltyState.due.

    Checkpoints and the residual stop try a kkt.Finish from z, by its
    run(steps), under the rule of the module docstring: the budget is the
    run's k + 1 x-steps, and at the stop (n + 2)/3 for each of its rho
    changes too, priced by kkt.finish_steps; the run keeps the kkt.Finish
    of the last failed attempt, which a retry of its pattern takes
    further, and counts attempts and failures in counts, which each
    Finish is given for its solves.  A certificate replaces iteration k by
    the optimum, with that iterate's own residual norms (r_norm 0), which
    the callback sees, and ends the run converged.

    Returns the last committed state, the termination, the iteration count,
    the rho in force at the end and whether a certificate ended the run.
    """
    n = problem.n
    start.rhs[n:] = problem.b
    factorization = left = start  # left: the LU at the rho left last
    rho, rho_vector = start.rho, start.rho_vector
    kappa, neg_kappa, scratch = shrink_constants(lam, rho, n)
    x = feasible_start(problem)
    z = x.copy()
    y = np.zeros(n)
    pen_state = PenaltyState(cfg.penalty)
    due = iter(pen_state.due)
    next_due = next(due, -1)  # -1 once no update is due any more
    reads_ybar = pen_state.reads_ybar
    tol = cfg.tol
    # the x-steps' worth of the run's rho changes, (n + 2)/3 each
    factor_work = 0.0
    checkpoints = certificate_checkpoints(attempt_floor(n))
    checkpoint = next(checkpoints)
    failed = None  # the kkt.Finish of the last failed attempt
    certified = False
    # the last committed iterate's IterateState, or None when not built yet
    state = IterateState(x, z, y, rho, lam, -1)
    r_norm = d_norm = math.inf
    ybar = None
    termination, used = TERMINATION_MAX_ITER, budget

    # inf - inf in z - x is reported by the finiteness test, not as a warning
    with np.errstate(invalid="ignore"):
        for k in range(budget):
            x_new = solve_x_update(factorization, z, y)
            z_new = z_update(x_new, y, rho_vector, kappa, neg_kappa, scratch)
            primal = z_new - x_new
            norms = residual_norms(primal, z_new - z, rho)
            if not math.isfinite(norms[0]):
                termination, used = TERMINATION_NUMERICAL, k
                break
            r_norm, d_norm = norms
            y_new = y_update(y, rho_vector, primal)
            ybar = (compute_ybar(y, rho, x_new, z)
                    if reads_ybar and k == next_due else None)
            stop = stopping_check(r_norm, d_norm, x_new, z_new, y_new, tol)
            if stop or k == checkpoint:
                if k == checkpoint:
                    checkpoint = next(checkpoints)
                signs = np.sign(z_new)
                # the run's work so far; its rho changes count at the stop
                work = k + 1 + (factor_work if stop else 0.0)
                steps = finish_steps(n, np.count_nonzero(signs), work)
                if steps and (stop or (signs == np.sign(z)).all()):
                    retry = (failed is not None
                             and (signs == failed.pattern).all())
                    finish = (failed if retry
                              else Finish(problem, lam, z_new, counts))
                    if finish.budget < steps:
                        # this attempt replaces the last failed one, whose
                        # kept inverse goes before this one builds its own
                        failed = None
                        counts.attempts += 1
                        polish = finish.run(steps)
                        if polish is None:
                            counts.failed += 1
                            failed = finish
                        else:
                            x_new = z_new = polish[0]
                            y_new = -lam * polish[2]
                            r_norm, d_norm = residual_norms(z_new - x_new,
                                                            z_new - z, rho)
                            stop = certified = True
            x, z, y = x_new, z_new, y_new
            state = None

            if callback is not None:
                state = IterateState(x, z, y, rho, lam, k, r_norm, d_norm, ybar)
                callback(state)

            if stop:
                termination, used = TERMINATION_CONVERGED, k + 1
                break

            if k == next_due:
                next_due = next(due, -1)
                if state is None:
                    state = IterateState(x, z, y, rho, lam, k, r_norm, d_norm,
                                         ybar)
                rho_new = pen_state.update(state)
                if rho_new != rho:
                    rho = rho_new
                    if left.rho != rho:
                        left = start  # an older LU goes before a new one
                    if left.rho != rho:
                        left = factorize(problem, rho)
                    factorization, left = left, factorization
                    factor_work += (n + 2) / 3
                    rho_vector = factorization.rho_vector
                    kappa, neg_kappa, scratch = shrink_constants(lam, rho, n)

    if state is None:
        # Not built means no update ran after the last committed iterate, so
        # rho is still the value it ran with.
        state = IterateState(x, z, y, rho, lam, used - 1, r_norm, d_norm, ybar)
    return state, termination, used, rho, certified


def solve(problem: PortfolioProblem, cfg: SolverConfig,
          callback: Optional[Callable[[IterateState], None]] = None, *,
          start: Optional[KktFactorization] = None) -> SolveResult:
    """Run ADMM to a KKT certificate, the residual tolerance, the iteration
    cap, or a breakdown.

    callback, if given, receives each iteration's IterateState; it is the
    only per-iteration output.  Hitting max_iter is reported in the result,
    not raised.

    In adaptive lambda mode the short-sale guard runs between runs, not
    inside one: after a converged run it counts the shorts of that run's z
    and, if lambda moves, starts a new run from the cold start at the new
    lambda.  It stops when lambda stays put, a run does not converge or
    MAX_ADJUSTMENTS moves are made; lambda_adjustments counts the moves.
    max_iter bounds the iterations of all runs together; a move that finds
    the budget spent starts no run and ends the solve as max_iter, with
    the moved lambda as lambda_final, and not certified.  The callback sees
    every run, each with k counting from 0.  iterations is the total;
    weights, final_state, rho_final and certified come from the last run.
    start, if given, is factorize(p, initial_rho(cfg.penalty, p.C)) for a p
    of this problem's C and mu, at any target.
    """
    schedule = cfg.lambda_schedule
    lam = schedule.lambda_current
    if start is None:
        start = factorize(problem, initial_rho(cfg.penalty, problem.C))
    iterations = moves = 0
    counts = FinishCounts()
    while iterations < cfg.max_iter:
        state, termination, used, rho, certified = _run(
            problem, cfg, lam, start, cfg.max_iter - iterations, callback,
            counts)
        iterations += used
        if (schedule.sn is None or termination != TERMINATION_CONVERGED
                or moves == MAX_ADJUSTMENTS):
            break
        schedule = maybe_adjust(schedule, count_short_positions(state.z))
        if schedule.lambda_current == lam:
            break
        lam = schedule.lambda_current
        moves += 1
    else:  # lambda moved with the budget spent: the last run's result stands
        termination, certified = TERMINATION_MAX_ITER, False

    x = state.x
    return SolveResult(
        weights=x,
        objective=objective_value(problem.C, x, lam),
        iterations=iterations,
        termination=termination,
        final_state=state,
        lambda_final=lam,
        lambda_adjustments=moves,
        rho_final=rho,
        certified=certified,
        finish=counts,
    )
