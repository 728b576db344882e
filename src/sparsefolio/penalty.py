"""Penalty-parameter strategies: fixed, residual balancing, and spectral rules.

Four interchangeable policies drive the ADMM penalty rho:

- ``fixed``: rho never moves.
- ``rb``: residual balancing; multiply or divide by eta when the dual and
  primal residual norms drift more than a factor mu_rb apart.
- ``bb``: safeguarded spectral estimate from two-point (Barzilai-Borwein)
  curvature scalars of the dual trajectory, with an alternating
  short/long step choice.
- ``rbb``: like ``bb`` but interpolates between the two curvature scalars
  with a regularization weight tau driven by the residual ratio.

Every policy reads the engine's ``IterateState`` by attribute: rho and the
residual norms, and for the spectral rules also x, z, y and ybar.  Both
spectral rules measure curvature between the current iterate and the
iterate of the previous spectral update, which ``PenaltyState`` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # admm_engine imports this module
    from .admm_engine import IterateState

PENALTY_KINDS = ("fixed", "rb", "bb", "rbb")
TAU_MAX_DEFAULT = 1e12


@dataclass(frozen=True)
class PenaltyConfig:
    kind: str = "fixed"
    rho0: float = 1.0
    eta: float = 2.0
    mu_rb: float = 10.0
    eps_corr: float = 0.2
    q: float = 1.0
    nbar: int = 2
    rho_min: float = 1e-8
    rho_max: float = 1e8
    freeze_after: int = 1000
    tau_max: float = TAU_MAX_DEFAULT

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        for name in ("rho0", "eta", "mu_rb", "eps_corr", "q", "rho_min", "rho_max",
                     "tau_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0 < self.rho_min < self.rho0 < self.rho_max):
            raise ValueError("need 0 < rho_min < rho0 < rho_max")
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")
        if self.mu_rb <= 1:
            raise ValueError("mu_rb must exceed 1")
        if not (0 < self.eps_corr < 1):
            raise ValueError("eps_corr must lie in (0, 1)")
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.nbar < 1:
            raise ValueError("nbar must be at least 1")
        if self.freeze_after < 0:
            raise ValueError("freeze_after must be nonnegative")
        if self.tau_max <= 0:
            raise ValueError("tau_max must be positive")


class BbScalars(NamedTuple):
    """Steepest-descent-like and minimum-gradient-like curvature scalars.

    ``bb1`` is <d, g>/||d||^2 and ``bb2`` is ||g||^2/<d, g>; their ratio is
    the squared correlation.  When <d, g> = 0, bb2 is reported as inf and
    callers must take the safeguard branch (corr will be 0).
    """

    bb1: float
    bb2: float
    corr: float


def rb_update(rho: float, r_norm: float, d_norm: float,
              cfg: PenaltyConfig) -> float:
    """Residual balancing: nudge rho toward equal primal/dual residuals.

    Raising rho tightens the consensus penalty and shrinks the primal
    residual at the cost of the dual one, so the rule raises rho when the
    primal residual dominates and lowers it when the dual dominates.
    """
    if r_norm > cfg.mu_rb * d_norm:
        rho = rho * cfg.eta
    elif d_norm > cfg.mu_rb * r_norm:
        rho = rho / cfg.eta
    return min(max(rho, cfg.rho_min), cfg.rho_max)


def compute_ybar(y_prev: np.ndarray, rho_prev: float, x_new: np.ndarray,
                 z_prev: np.ndarray) -> np.ndarray:
    """Intermediate dual estimate taken after the x-step but before the z-step."""
    return y_prev + rho_prev * (z_prev - x_new)


def bb_scalars(d_dual: np.ndarray, d_grad: np.ndarray) -> BbScalars:
    """Two-point curvature scalars and the correlation that gates their use."""
    dual_norm = math.sqrt(d_dual.dot(d_dual))
    grad_norm = math.sqrt(d_grad.dot(d_grad))
    if dual_norm == 0.0 or grad_norm == 0.0:
        raise ValueError("curvature scalars need nonzero difference vectors")
    inner = float(d_dual @ d_grad)
    bb1 = inner / dual_norm**2
    bb2 = grad_norm**2 / inner if inner != 0.0 else math.inf
    corr = inner / (dual_norm * grad_norm)
    return BbScalars(bb1=bb1, bb2=bb2, corr=corr)


def tau_update(r_norm: float, d_norm: float, q: float,
               tau_max: float = TAU_MAX_DEFAULT) -> float:
    """Regularization weight (r/d)^q, capped at tau_max (also used when d = 0)."""
    if d_norm == 0.0:
        return tau_max
    return min((r_norm / d_norm) ** q, tau_max)


def rbb_scalar(d_dual: np.ndarray, d_grad: np.ndarray, tau: float) -> float:
    """Regularized curvature scalar interpolating bb1 (tau=0) to bb2 (tau->inf).

    Requires positive curvature <d_dual, d_grad> > 0, which the correlation
    safeguard guarantees before this is ever called.
    """
    inner = float(d_dual @ d_grad)
    if inner <= 0.0:
        raise ValueError(f"regularized scalar needs positive curvature, got {inner}")
    dual_sq = float(d_dual @ d_dual)
    grad_sq = float(d_grad @ d_grad)
    return (inner + tau * grad_sq) / (dual_sq + tau * inner)


def _hybrid_scalar(scalars: BbScalars) -> float:
    # Alternating short/long step choice, expressed in step-size space where
    # 1/bb1 is the long step and 1/bb2 the short one.
    step_long = 1.0 / scalars.bb1
    step_short = 1.0 / scalars.bb2
    if 2.0 * step_short > step_long:
        step = step_short
    else:
        step = step_long - 0.5 * step_short
    return 1.0 / step


def _side_scalar(d_dual: np.ndarray, d_grad: np.ndarray, eps_corr: float,
                 tau: Optional[float]) -> Optional[float]:
    # Returns the curvature scalar for one side, or None when that side is
    # unreliable (degenerate differences or correlation at/below the gate).
    # tau is rbb's regularization weight; None selects bb's hybrid step.
    try:
        scalars = bb_scalars(d_dual, d_grad)
    except ValueError:  # a zero difference vector
        return None
    if not (scalars.corr > eps_corr):
        return None
    if tau is not None:
        return rbb_scalar(d_dual, d_grad, tau)
    return _hybrid_scalar(scalars)


def spectral_rho(prev: IterateState, state: IterateState,
                 cfg: PenaltyConfig) -> float:
    """One safeguarded spectral penalty update; returns the new rho.

    prev is the iterate of the previous spectral update and state the
    current one; both carry ybar.  The x-side scalar alpha and z-side
    scalar beta are each accepted only if their correlation clears
    eps_corr; the new rho is 1/sqrt(alpha*beta) when both pass, 1/alpha or
    1/beta when one does, and the old rho when neither does.  Every
    degeneracy (zero differences, nonpositive curvature) lands in the
    "unchanged" branch rather than raising.
    """
    if cfg.kind not in ("bb", "rbb"):
        raise ValueError(f"spectral update called with kind={cfg.kind!r}")
    d_ybar = state.ybar - prev.ybar
    d_y = state.y - prev.y
    d_psi = state.x - prev.x
    d_phi = prev.z - state.z
    tau = (tau_update(state.r_norm, state.d_norm, cfg.q, cfg.tau_max)
           if cfg.kind == "rbb" else None)
    alpha = _side_scalar(d_ybar, d_psi, cfg.eps_corr, tau)
    beta = _side_scalar(d_y, d_phi, cfg.eps_corr, tau)
    if alpha is not None and beta is not None:
        rho_new = 1.0 / math.sqrt(alpha * beta)
    elif alpha is not None:
        rho_new = 1.0 / alpha
    elif beta is not None:
        rho_new = 1.0 / beta
    else:
        rho_new = state.rho
    return min(max(rho_new, cfg.rho_min), cfg.rho_max)


class PenaltyState:
    """Owns the per-solve memory of one penalty policy.

    The engine decides *when* an update is due (the nbar cadence and the
    freeze horizon); this object only knows *how* to produce the next rho.
    For the spectral rules ``prev`` is the last iterate an update saw.
    """

    def __init__(self, cfg: PenaltyConfig):
        self.cfg = cfg
        self.prev: Optional[IterateState] = None

    def update(self, state: IterateState) -> float:
        cfg = self.cfg
        if cfg.kind == "fixed":
            return state.rho
        if cfg.kind == "rb":
            return rb_update(state.rho, state.r_norm, state.d_norm, cfg)
        prev, self.prev = self.prev, state
        if prev is None:
            # First spectral visit: nothing to difference against yet.
            return state.rho
        return spectral_rho(prev, state, cfg)
