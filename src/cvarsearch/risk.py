"""Empirical value-at-risk and conditional value-at-risk of loss samples.

Conventions used throughout the package:

* losses are "bigger is worse"; VaR/CVaR look at the upper tail;
* the level alpha lies in [0, 1); alpha = 0 degenerates to the plain mean;
* the empirical VaR at level alpha of M samples is the j-th ascending
  order statistic with j = max(1, ceil(alpha * M)).  The clamp at 1 makes
  the alpha = 0 case well defined (the sample minimum) and, through the
  averaged-excess form below, makes the alpha = 0 CVaR the sample mean.

Functions accept a single sample set of shape (M,) or a batch of shape
(n, M) reduced along the last axis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

__all__ = ["empirical_var", "empirical_cvar", "gaussian_cvar_oracle"]


def _check_losses(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"losses must have shape (M,) or (n, M), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    return arr


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def _partition(arr: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    # a copy of already checked input partitioned along the last axis about
    # its max(1, ceil(alpha M))-th ascending order statistic, and that
    # statistic's index
    k = max(1, math.ceil(alpha * arr.shape[-1])) - 1
    return np.partition(arr, k, axis=-1), k


def empirical_var(losses, alpha: float):
    """Empirical VaR: the max(1, ceil(alpha M))-th ascending order statistic."""
    arr = _check_losses(losses)
    part, k = _partition(arr, _check_alpha(alpha))
    out = part[..., k]
    return float(out) if arr.ndim == 1 else out


def empirical_cvar(losses, alpha: float):
    """Empirical CVaR: VaR plus the averaged excess over it.

    Computes ``v + sum((l - v)+) / (M (1 - alpha))`` with v the empirical
    VaR.  At alpha = 0 this telescopes to the arithmetic mean, which is
    returned directly; the maximum with the sample minimum only guards
    against summation round-off dipping below it.
    """
    arr = _check_losses(losses)
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        out = np.maximum(arr.mean(axis=-1), arr.min(axis=-1))
        return float(out) if arr.ndim == 1 else out
    m = arr.shape[-1]
    part, k = _partition(arr, alpha)
    v = part[..., k].copy()
    # the excess of the caller's array, in its own order, written over the
    # partition copy: the elementwise values and the summation order of
    # max(arr - v, 0) without a temporary of the block's size
    excess = np.subtract(arr, v[..., None], out=part)
    np.maximum(excess, 0.0, out=excess)
    out = v + excess.sum(axis=-1) / (m * (1.0 - alpha))
    return float(out) if arr.ndim == 1 else out


def gaussian_cvar_oracle(mean: float, sd: float, alpha: float) -> float:
    """Closed-form CVaR of N(mean, sd^2): mean + sd * pdf(z) / (1 - alpha)."""
    alpha = _check_alpha(alpha)
    sd = float(sd)
    # a finite sd keeps sd * pdf(ppf(0)) = sd * 0 at alpha = 0 from being NaN
    if not (math.isfinite(sd) and sd >= 0):
        raise ValueError(f"sd must be finite and >= 0, got {sd}")
    # the standard normal pdf at its alpha-quantile, evaluated as
    # scipy.stats.norm does it, without loading scipy.stats
    z = ndtri(alpha)
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    return float(mean) + sd * float(pdf) / (1.0 - alpha)
