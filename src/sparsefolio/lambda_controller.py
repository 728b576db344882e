"""Initialization and adaptive escalation of the L1 penalty weight.

The default weight is 1/(m*n) for an m-period, n-asset estimation window.
A schedule with an allowance sn of short positions is adaptive; sn = None
keeps the weight fixed.  In adaptive mode the engine solves to
convergence, counts the short positions of the solution and, when they
exceed sn, multiplies the weight by max(shorts observed / shorts
tolerated, 2) and solves again, until the count is within the allowance.
A finite weight already makes the optimum long-only (Brodie et al. 2009),
so the moves end; admm_engine.solve stops them at MAX_ADJUSTMENTS where
the target needs shorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

# Budget of lambda moves per solve, so lambda cannot diverge when the
# target is unattainable long-only.
MAX_ADJUSTMENTS = 50


@dataclass(frozen=True)
class LambdaSchedule:
    """The L1 weight and, in adaptive mode, the shorts tolerated (sn)."""

    lambda_current: float
    sn: Optional[int] = None

    def __post_init__(self):
        if not (0 <= self.lambda_current < math.inf):
            raise ValueError("lambda weights must be nonnegative and finite")
        if self.sn is not None:
            if self.lambda_current == 0:
                # A zero weight can never escalate multiplicatively.
                raise ValueError("lambda must be positive in adaptive mode")
            if self.sn < 0:
                raise ValueError("sn must be nonnegative")

    @classmethod
    def fixed(cls, value: float) -> "LambdaSchedule":
        return cls(lambda_current=float(value))

    @classmethod
    def adaptive(cls, lambda0: float, sn: int = 0) -> "LambdaSchedule":
        return cls(lambda_current=float(lambda0), sn=sn)


def initial_lambda(m: int, n: int) -> float:
    """Default L1 weight 1/(m*n); decays with more data or more assets."""
    if m < 2 or n < 2:
        raise ValueError(f"need m >= 2 periods and n >= 2 assets, got m={m}, n={n}")
    return 1.0 / (m * n)


def maybe_adjust(schedule: LambdaSchedule, sm: int) -> LambdaSchedule:
    """Escalate lambda when a solution holds more than sn short positions.

    The multiplier is sm/sn with a zero sn clamped to 1 in the denominator,
    and at least 2, so every move at least doubles lambda (sm = 1 with
    sn = 0 would otherwise multiply by exactly 1).  Lambda never decreases.
    The rule has no budget of its own: the caller counts the moves.
    """
    if schedule.sn is None:
        raise ValueError("maybe_adjust requires an adaptive schedule")
    if sm > schedule.sn:
        factor = max(sm / max(schedule.sn, 1), 2.0)
        return replace(schedule, lambda_current=schedule.lambda_current * factor)
    return schedule
