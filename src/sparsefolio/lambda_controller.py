"""Initialization and adaptive escalation of the L1 penalty weight.

The default weight is 1/(m*n) for an m-period, n-asset estimation window.
In adaptive mode the weight is multiplied by (shorts observed / shorts
tolerated) whenever the iterate carries more short positions than the
investor allows, which monotonically drives the solution long-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

LAMBDA_MODES = ("fixed", "adaptive")
# Budget of lambda moves per solve, so lambda cannot diverge when the
# target is unattainable long-only.
MAX_ADJUSTMENTS = 50


@dataclass(frozen=True)
class LambdaSchedule:
    lambda0: float
    lambda_current: float
    sn: int = 0
    adjustments_made: int = 0
    mode: str = "fixed"

    def __post_init__(self):
        if self.mode not in LAMBDA_MODES:
            raise ValueError(f"mode must be one of {LAMBDA_MODES}, got {self.mode!r}")
        if not (0 <= self.lambda0 < math.inf and 0 <= self.lambda_current < math.inf):
            raise ValueError("lambda weights must be nonnegative and finite")
        if self.mode == "adaptive" and self.lambda0 == 0:
            # A zero weight can never escalate multiplicatively.
            raise ValueError("lambda must be positive in adaptive mode")
        if self.lambda_current < self.lambda0:
            raise ValueError("lambda_current may never fall below lambda0")
        if self.sn < 0:
            raise ValueError("sn must be nonnegative")
        if not (0 <= self.adjustments_made <= MAX_ADJUSTMENTS):
            raise ValueError("adjustments_made out of range")

    @classmethod
    def fixed(cls, value: float) -> "LambdaSchedule":
        return cls(lambda0=float(value), lambda_current=float(value), mode="fixed")

    @classmethod
    def adaptive(cls, lambda0: float, sn: int = 0) -> "LambdaSchedule":
        return cls(lambda0=float(lambda0), lambda_current=float(lambda0),
                   sn=sn, mode="adaptive")


def initial_lambda(m: int, n: int) -> float:
    """Default L1 weight 1/(m*n); decays with more data or more assets."""
    if m < 2 or n < 2:
        raise ValueError(f"need m >= 2 periods and n >= 2 assets, got m={m}, n={n}")
    return 1.0 / (m * n)


def maybe_adjust(schedule: LambdaSchedule, sm: int) -> LambdaSchedule:
    """Escalate lambda when the iterate holds more than sn short positions.

    The multiplier is sm/sn with a zero sn clamped to 1 in the denominator.
    Only multipliers above 1 count as adjustments (sm = 1 with sn = 0 would
    multiply by exactly 1); the budget MAX_ADJUSTMENTS bounds their total
    number.  Lambda never decreases.
    """
    if schedule.mode != "adaptive":
        raise ValueError(f"maybe_adjust requires adaptive mode, got {schedule.mode!r}")
    if sm > schedule.sn and schedule.adjustments_made < MAX_ADJUSTMENTS:
        factor = sm / max(schedule.sn, 1)
        if factor > 1.0:
            return replace(schedule,
                           lambda_current=schedule.lambda_current * factor,
                           adjustments_made=schedule.adjustments_made + 1)
    return schedule
