"""Penalty-parameter strategies: fixed, residual balancing, and spectral rules.

Four interchangeable policies drive the ADMM penalty rho:

- ``fixed``: rho never moves.
- ``rb``: residual balancing; multiply or divide by ETA when the dual and
  primal residual norms drift more than a factor MU_RB apart.
- ``bb``: safeguarded spectral estimate from two-point (Barzilai-Borwein)
  curvature scalars of the dual trajectory, with an alternating
  short/long step choice.
- ``rbb``: like ``bb`` but interpolates between the two curvature scalars
  with a regularization weight tau driven by the residual ratio.

Every policy reads the engine's ``IterateState`` by attribute: rho and the
residual norms, and for the spectral rules also x, z, y and ybar.  Both
spectral rules measure curvature between the current iterate and the
iterate of the previous spectral update, which ``PenaltyState`` keeps.

A new rho costs the engine one KKT refactorization, so ``PenaltyState``
lets a spectral rule move rho only when its (clipped) proposal is at least
REFACTOR_RATIO times or at most 1/REFACTOR_RATIO times the current rho;
a proposal strictly between keeps the current rho (the adaptive-rho
tolerance of OSQP, Stellato et al. 2020).  The curvature memory still
advances on every spectral update.  ``rb`` is exempt: its every move is a
factor ETA < REFACTOR_RATIO, which the rule would forbid.

Where a run starts is the policy's too (``initial_rho``).  ``fixed`` never
moves rho and ``rb`` moves it by a factor ETA per update, so both start at
sqrt(lambda_min(C) * lambda_max(C)), the optimal fixed penalty of ADMM on a
strongly convex quadratic program (Ghadimi, Teixeira, Shames and Johansson
2015).  The spectral rules estimate rho from curvature within two updates
and start at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # admm_engine imports this module
    from .admm_engine import IterateState

PENALTY_KINDS = ("fixed", "rb", "bb", "rbb")

# The method's fixed safeguards.
ETA = 2.0             # rb: factor rho is multiplied or divided by
MU_RB = 10.0          # rb: residual ratio that triggers a move
EPS_CORR = 0.2        # bb/rbb: correlation a curvature side must exceed
RHO_MIN = 1e-8        # every update is clipped to [RHO_MIN, RHO_MAX]
RHO_MAX = 1e8
NBAR = 2              # an update is due on every NBAR-th iteration
FREEZE_AFTER = 1000   # no update is due after this iteration
TAU_MAX = 1e12        # rbb: cap on the regularization weight tau
REFACTOR_RATIO = 5.0  # bb/rbb: smallest factor a new rho must move by


@dataclass(frozen=True)
class PenaltyConfig:
    """kind, the starting rho0 (None for the kind's start, see initial_rho)
    and rbb's exponent q."""

    kind: str = "fixed"
    rho0: Optional[float] = None
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if self.rho0 is not None and not (RHO_MIN < self.rho0 < RHO_MAX):
            # the comparison is False for NaN and inf too
            raise ValueError(f"need {RHO_MIN} < rho0 < {RHO_MAX}")
        if not (0 < self.q < math.inf):
            raise ValueError("q must be positive and finite")


def initial_rho(cfg: PenaltyConfig, C: np.ndarray) -> float:
    """The rho a run starts at: cfg.rho0 if set, else the kind's start.

    For fixed and rb that is sqrt(lambda_min) * sqrt(lambda_max) of C, a
    product of square roots, which neither under- nor overflows, clipped to
    [RHO_MIN, RHO_MAX].  lambda_min is floored at eps * lambda_max, the
    accuracy of eigvalsh, so that a nearly singular C whose computed
    lambda_min is 0 or negative by rounding still gives a positive value.
    For bb and rbb it is 1.
    """
    if cfg.rho0 is not None:
        return cfg.rho0
    if cfg.kind in ("bb", "rbb"):
        return 1.0
    eigenvalues = np.linalg.eigvalsh(C)
    high = float(eigenvalues[-1])
    low = max(float(eigenvalues[0]), high * np.finfo(float).eps)
    return min(max(math.sqrt(low) * math.sqrt(high), RHO_MIN), RHO_MAX)


def rb_update(rho: float, r_norm: float, d_norm: float) -> float:
    """Residual balancing: nudge rho toward equal primal/dual residuals.

    Raising rho tightens the consensus penalty and shrinks the primal
    residual at the cost of the dual one, so the rule raises rho when the
    primal residual dominates and lowers it when the dual dominates.
    """
    if r_norm > MU_RB * d_norm:
        rho = rho * ETA
    elif d_norm > MU_RB * r_norm:
        rho = rho / ETA
    return min(max(rho, RHO_MIN), RHO_MAX)


def compute_ybar(y_prev: np.ndarray, rho_prev: float, x_new: np.ndarray,
                 z_prev: np.ndarray) -> np.ndarray:
    """Intermediate dual estimate taken after the x-step but before the z-step."""
    return y_prev + rho_prev * (z_prev - x_new)


def tau_update(r_norm: float, d_norm: float, q: float) -> float:
    """Regularization weight (r/d)^q, capped at TAU_MAX (also used when d = 0
    and when the power overflows a float, as it can for a large q)."""
    try:
        return min((r_norm / d_norm) ** q, TAU_MAX)
    except (ZeroDivisionError, OverflowError):
        return TAU_MAX


def _side_scalar(d_dual: np.ndarray, d_grad: np.ndarray,
                 tau: Optional[float]) -> Optional[float]:
    # The curvature scalar of one side, or None when that side is unreliable:
    # a zero difference vector, or a correlation <d, g>/(||d|| ||g||) at or
    # below EPS_CORR (a correlation above it makes <d, g> positive).  tau is
    # rbb's regularization weight, which interpolates bb1 = <d, g>/||d||^2
    # (tau=0) to bb2 = ||g||^2/<d, g> (tau->inf); None selects bb's hybrid.
    # The scalar is 0.0 where it underflows and inf where it overflows.
    dual_sq = float(d_dual.dot(d_dual))
    grad_sq = float(d_grad.dot(d_grad))
    if dual_sq == 0.0 or grad_sq == 0.0:
        return None
    inner = float(d_dual @ d_grad)
    dual_norm = math.sqrt(dual_sq)
    grad_norm = math.sqrt(grad_sq)
    if not (inner / (dual_norm * grad_norm) > EPS_CORR):
        return None
    if tau is not None:
        denominator = dual_sq + tau * inner
        if denominator == math.inf:  # the same ratio divided through by tau*inner
            return (1.0 / tau + grad_sq / inner) / (dual_sq / inner / tau + 1.0)
        return (inner + tau * grad_sq) / denominator
    # Alternating short/long step choice, expressed in step-size space where
    # 1/bb1 is the long step and 1/bb2 the short one.
    bb1 = inner / dual_norm**2
    step_long = 1.0 / bb1 if bb1 else math.inf
    if step_long == math.inf:  # bb1 <= bb2 underflows, and so does the step
        return 0.0
    step_short = 1.0 / (grad_norm**2 / inner)
    if 2.0 * step_short > step_long:
        step = step_short
    else:
        step = step_long - 0.5 * step_short
    return 1.0 / step if step else math.inf


def spectral_rho(prev: IterateState, state: IterateState,
                 cfg: PenaltyConfig) -> float:
    """One safeguarded spectral penalty update; returns the new rho.

    prev is the iterate of the previous spectral update and state the
    current one; both carry ybar.  The x-side scalar alpha and z-side
    scalar beta are each accepted only if their correlation clears
    EPS_CORR; the new rho is 1/sqrt(alpha*beta) when both pass, 1/alpha or
    1/beta when one does, and the old rho when neither does, each clipped to
    [RHO_MIN, RHO_MAX].  Zero differences and nonpositive curvature land in
    the "unchanged" branch.  A curvature that underflows to zero, alone or
    against an infinite one (0*inf), gives the limit 1/0+, so RHO_MAX.
    """
    if cfg.kind not in ("bb", "rbb"):
        raise ValueError(f"spectral update called with kind={cfg.kind!r}")
    tau = tau_update(state.r_norm, state.d_norm, cfg.q) if cfg.kind == "rbb" else None
    # A difference or a squared norm beyond the double range is inf (or an
    # inner product NaN), which the correlation gate rejects: no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _side_scalar(state.ybar - prev.ybar, state.x - prev.x, tau)
        beta = _side_scalar(state.y - prev.y, prev.z - state.z, tau)
    if alpha is not None and beta is not None:
        curvature = math.sqrt(alpha * beta)
    elif alpha is not None or beta is not None:
        curvature = beta if alpha is None else alpha
    else:
        return min(max(state.rho, RHO_MIN), RHO_MAX)
    rho_new = 1.0 / curvature if curvature > 0.0 else math.inf  # 0 or NaN
    return min(max(rho_new, RHO_MIN), RHO_MAX)


class PenaltyState:
    """Owns the per-solve memory and the cadence of one penalty policy.

    ``due`` holds the iterations an update is due: every NBAR-th, from
    iteration 1 through the freeze horizon FREEZE_AFTER, and none under
    ``fixed``, whose rho never moves.  The engine calls ``update`` on those
    iterations only, and computes ybar for it only when ``reads_ybar``.
    For the spectral rules ``prev`` is the last iterate an update saw.
    """

    def __init__(self, cfg: PenaltyConfig):
        self.cfg = cfg
        self.prev: Optional[IterateState] = None
        self.due = range(0) if cfg.kind == "fixed" else range(1, FREEZE_AFTER + 1, NBAR)
        self.reads_ybar = cfg.kind in ("bb", "rbb")

    def update(self, state: IterateState) -> float:
        cfg = self.cfg
        if cfg.kind == "rb":
            return rb_update(state.rho, state.r_norm, state.d_norm)
        prev, self.prev = self.prev, state
        if prev is None:
            # First spectral visit: nothing to difference against yet.
            return state.rho
        rho_new = spectral_rho(prev, state, cfg)
        if state.rho / REFACTOR_RATIO < rho_new < state.rho * REFACTOR_RATIO:
            return state.rho
        return rho_new
