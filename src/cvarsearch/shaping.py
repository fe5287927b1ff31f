"""Logistic score shaping for the elite-weighting step of the search.

Candidate scores (negated CVaR estimates, so bigger is better) are pushed
through a logistic centred at the sample (1 - rho)-quantile of the scores
themselves.  With a steep slope this approximates hard top-rho selection
while staying differentiable; the quantile recentres the weighting at every
iteration, which keeps the method invariant to shifting all scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ShapeConfig", "sample_quantile_threshold", "shape"]

# the logistic is exactly 1.0 from about t = 36.7, where exp(-t) falls to
# half an ulp of 1, and exactly 0.0 below about t = -709.8, where exp(-t)
# overflows; these bounds lie safely inside both
_ONE_FROM = 40.0
_ZERO_TO = -710.0


@dataclass(frozen=True)
class ShapeConfig:
    """Slope s_o (> 0) and elite fraction rho in (0, 1]."""

    s_o: float = 1e5
    rho: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.s_o) and self.s_o > 0):
            raise ValueError(f"s_o must be positive and finite, got {self.s_o}")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")


def sample_quantile_threshold(scores, rho: float) -> float:
    """The max(1, ceil((1 - rho) N))-th ascending order statistic.

    rho = 1 gives the sample minimum, so every score sits at or above the
    threshold and nothing is filtered out.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"scores must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    n = arr.size
    j = max(1, math.ceil((1.0 - rho) * n))
    return float(np.partition(arr, j - 1)[j - 1])


def shape(score, gamma: float, config: ShapeConfig):
    """Logistic 1 / (1 + exp(-s_o (score - gamma))), elementwise.

    Bit for bit ``scipy.special.expit``: the same formula on the C
    library's ``exp``, which ``math.exp`` calls, with an overflowing
    ``exp(-t)`` giving 0.  Under the steep default slope almost every entry
    saturates to exactly 0 or 1, so only the others are evaluated, one by
    one.
    """
    s = np.asarray(score, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("score must be finite")
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    t = config.s_o * (s.reshape(-1) - gamma)
    out = np.where(t > 0.0, 1.0, 0.0)
    for i in np.flatnonzero((t > _ZERO_TO) & (t < _ONE_FROM)):
        out[i] = _logistic(float(t[i]))
    return float(out[0]) if np.isscalar(score) or s.ndim == 0 else out.reshape(s.shape)


def _logistic(t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0
