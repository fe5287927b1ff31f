"""Logistic score shaping for the elite-weighting step of the search.

Candidate scores (negated CVaR estimates, so bigger is better) are pushed
through a logistic centred at their empirical (1 - rho)-VaR, the sample
(1 - rho)-quantile.  A steep slope approximates hard top-rho selection
while staying differentiable; the quantile recentres the weighting at every
iteration, which keeps the method invariant to shifting all scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .risk import _check_array, _check_number, _partition

__all__ = ["ShapeConfig", "sample_quantile_threshold", "shape"]

# the logistic is exactly 1.0 from about t = 36.7, where exp(-t) falls to
# half an ulp of 1, and exactly 0.0 below about t = -709.8, where exp(-t)
# overflows; these bounds lie safely inside both
_ONE_FROM = 40.0
_ZERO_TO = -710.0


def _check_rho(rho: float) -> float:
    """The elite-fraction rule: rho as a float in (0, 1]."""
    return _check_number(rho, "rho", 0, strict=True, most=1)


@dataclass(frozen=True)
class ShapeConfig:
    """Slope s_o (> 0) and elite fraction rho in (0, 1]."""

    s_o: float
    rho: float

    def __post_init__(self):
        _check_number(self.s_o, "s_o", 0, strict=True)
        _check_rho(self.rho)


def sample_quantile_threshold(scores, rho: float) -> float:
    """The max(1, ceil((1 - rho) N))-th ascending order statistic, the
    scores' empirical VaR at level 1 - rho.

    rho = 1 gives the sample minimum, so every score sits at or above the
    threshold and nothing is filtered out.
    """
    part, k = _partition(_check_array(scores, "scores"), 1.0 - _check_rho(rho))
    return float(part[k])


def shape(score, gamma: float, config: ShapeConfig) -> np.ndarray:
    """Logistic 1 / (1 + exp(-s_o (score - gamma))) of each entry of a
    non-empty 1-d array of scores; a single score is an array of one.

    Bit for bit ``scipy.special.expit``: the same formula on the C
    library's ``exp``, which ``math.exp`` calls, with an overflowing
    ``exp(-t)`` giving 0.  Under the steep default slope almost every entry
    saturates to exactly 0 or 1, so only the others are evaluated, one by
    one.
    """
    s = _check_array(score, "score")
    gamma = _check_number(gamma, "gamma")
    # an overflowing t is +-inf, which saturates to exactly 1 or 0 below
    with np.errstate(over="ignore"):
        t = config.s_o * (s - gamma)
    out = np.where(t > 0.0, 1.0, 0.0)
    for i in np.flatnonzero((t > _ZERO_TO) & (t < _ONE_FROM)):
        out[i] = _logistic(float(t[i]))
    return out


def _logistic(t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0
