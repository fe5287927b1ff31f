"""Risk-level ramp driven by the observed gradient-norm decay.

The adaptive variant of the search starts at an easy risk level (often 0,
plain expectation) and moves it toward the target level as the gradient
norm falls.  Whenever the norm drops between consecutive iterations, the
gap to the target contracts by the same ratio:

    gap_{k+1} = (g_k / g_{k-1}) * gap_k          if g_k < g_{k-1}
    gap_{k+1} = gap_k                            otherwise

The previous norm is always replaced by the current one, whether or not
the level moved.  The state stores the gap itself and reports the level as
``target - gap``; carrying the gap keeps the contraction ratio identity
exact in floating point instead of hiding it behind re-subtraction error.

The inner sample size per candidate grows with the level so that the
expected number of tail samples stays constant: ceil(eff / (1 - alpha)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .risk import _check_alpha, _check_count

__all__ = ["RiskSchedule", "update_risk_level", "inner_sample_size"]


@dataclass(frozen=True)
class RiskSchedule:
    """Current risk level, target level, and the last seen gradient norm.

    Build fresh instances with :meth:`start`; updates go through
    :func:`update_risk_level` and return new instances.
    """

    alpha_current: float
    alpha_target: float
    prev_grad_norm: float | None = None
    # gap to the target; derived at construction, then carried through
    # updates so the contraction ratio stays exact
    gap: float | None = None

    def __post_init__(self):
        _check_alpha(self.alpha_target, "alpha_target")
        if not (0.0 <= self.alpha_current <= self.alpha_target):
            raise ValueError(
                f"alpha_current must lie in [0, alpha_target], got {self.alpha_current}"
            )
        if self.prev_grad_norm is not None and not (
            math.isfinite(self.prev_grad_norm) and self.prev_grad_norm >= 0.0
        ):
            raise ValueError("prev_grad_norm must be a finite value >= 0")
        if self.gap is None:
            object.__setattr__(self, "gap", self.alpha_target - self.alpha_current)
        if not (0.0 <= self.gap <= self.alpha_target):
            raise ValueError("gap must lie in [0, alpha_target]")

    @classmethod
    def start(cls, alpha_init: float, alpha_target: float) -> "RiskSchedule":
        return cls(alpha_current=float(alpha_init), alpha_target=float(alpha_target))


def update_risk_level(schedule: RiskSchedule, grad_norm: float) -> RiskSchedule:
    """One observation of the gradient norm; returns the next state.

    The first observation never moves the level (there is no previous norm
    to compare against).  A zero norm after a positive one jumps straight
    to the target.
    """
    grad_norm = float(grad_norm)
    if not math.isfinite(grad_norm) or grad_norm < 0.0:
        raise ValueError(f"grad_norm must be finite and >= 0, got {grad_norm}")
    prev = schedule.prev_grad_norm
    if prev is not None and grad_norm < prev:
        gap = (grad_norm / prev) * schedule.gap
        alpha = schedule.alpha_target - gap
    else:
        gap = schedule.gap
        alpha = schedule.alpha_current
    return RiskSchedule(
        alpha_current=alpha,
        alpha_target=schedule.alpha_target,
        prev_grad_norm=grad_norm,
        gap=gap,
    )


def inner_sample_size(alpha: float, effective_size: int) -> int:
    """Per-candidate simulation count ceil(effective_size / (1 - alpha))."""
    alpha = _check_alpha(alpha)
    return math.ceil(_check_count(effective_size, "effective_size", 2) / (1.0 - alpha))
