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
import operator

import numpy as np

__all__ = ["empirical_var", "empirical_cvar", "gaussian_cvar_oracle"]

# Cephes ndtri, the inverse standard normal CDF that scipy.special.ndtri
# evaluates, coefficients highest degree first.  Near the median it is
# y + y^3 P0(y^2) / Q0(y^2) in y = p - 0.5, times sqrt(2 pi); where p or
# 1 - p is below exp(-2) it is x - log(x) / x - P(1/x) / (x Q(1/x)) in
# x = sqrt(-2 log min(p, 1 - p)), with P1/Q1 for x < 8 and P2/Q2 beyond.
# Q0-Q2 have an implicit leading 1.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef) -> float:
    # Horner's rule in Cephes' order of operations, so the rounding matches
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x: float, coef) -> float:
    # the same with an implicit leading coefficient 1
    return _polevl(x, (1.0, *coef))


def _ndtri(p: float) -> float:
    """Standard normal quantile of p in [0, 1], bit for bit as
    ``scipy.special.ndtri`` computes it."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, num) / _p1evl(z, den)
    return x if upper else -x


def _check_losses(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"losses must have shape (M,) or (n, M), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    return arr


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    """The risk-level rule of the package: alpha as a float in [0, 1)."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {alpha}")
    return alpha


def _check_count(value, name: str, least: int = 1) -> int:
    """The count rule of the package: value as an int >= least.  A float
    is a TypeError, never truncated."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _partition(arr: np.ndarray, alpha: float,
               overwrite_input: bool = False) -> tuple[np.ndarray, int]:
    # already checked input partitioned along the last axis about its
    # max(1, ceil(alpha M))-th ascending order statistic, in place when
    # overwrite_input allows it and into a copy otherwise, and that
    # statistic's index
    k = max(1, math.ceil(alpha * arr.shape[-1])) - 1
    if not overwrite_input:
        return np.partition(arr, k, axis=-1), k
    arr.partition(k, axis=-1)
    return arr, k


def empirical_var(losses, alpha: float):
    """Empirical VaR: the max(1, ceil(alpha M))-th ascending order statistic."""
    arr = _check_losses(losses)
    part, k = _partition(arr, _check_alpha(alpha))
    out = part[..., k]
    return float(out) if arr.ndim == 1 else out


def empirical_cvar(losses, alpha: float, *, overwrite_input: bool = False):
    """Empirical CVaR: VaR plus the averaged excess over it.

    Computes ``v + sum((l - v)+) / (M (1 - alpha))`` with v the empirical
    VaR (Rockafellar and Uryasev's identity).  Only the M - j draws above
    the VaR's position can exceed it, so after partitioning about v this
    sorts only the part from v up, ``tail``, and returns
    ``min(v + sum(tail[1:] - v) / (M (1 - alpha)), tail[-1])``.  Sorted,
    the tail is summed in an order fixed by its values alone, so the
    estimate does not depend on the order of the draws, nor on the order
    in which ``np.partition``'s CPU-dispatched kernels leave them.  The
    minimum with the sample maximum ``tail[-1]`` guards against summation
    round-off.  The sort costs O((M - j) log(M - j)): little at the
    search's levels, where M - j is about the effective size, but at low
    alpha nearly the whole sample: at alpha = 0.01 on 10^6 draws the
    estimate takes about 24 ms on a 2-vCPU x86-64 host (NumPy 2.4),
    against 6 ms for a partition and an unsorted excess sum.

    At alpha = 0 the estimate telescopes to the arithmetic mean, which is
    returned directly; the maximum with the sample minimum only guards
    against summation round-off dipping below it.

    With ``overwrite_input`` (NumPy's name, from ``np.median``) a float64
    array is partitioned in place, saving a copy of its size; its rows are
    then left permuted.
    """
    arr = _check_losses(losses)
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        out = np.maximum(arr.mean(axis=-1), arr.min(axis=-1))
        return float(out) if arr.ndim == 1 else out
    m = arr.shape[-1]
    part, k = _partition(arr, alpha, overwrite_input)
    tail = np.sort(part[..., k:], axis=-1)
    v = tail[..., :1]
    excess = np.subtract(tail[..., 1:], v).sum(axis=-1)
    out = np.minimum(v[..., 0] + excess / (m * (1.0 - alpha)), tail[..., -1])
    return float(out) if arr.ndim == 1 else out


def gaussian_cvar_oracle(mean: float, sd: float, alpha: float) -> float:
    """Closed-form CVaR of N(mean, sd^2): mean + sd * pdf(z) / (1 - alpha)."""
    alpha = _check_alpha(alpha)
    sd = float(sd)
    # a finite sd keeps sd * pdf(ppf(0)) = sd * 0 at alpha = 0 from being NaN
    if not (math.isfinite(sd) and sd >= 0):
        raise ValueError(f"sd must be finite and >= 0, got {sd}")
    # the standard normal pdf at its alpha-quantile, evaluated as
    # scipy.stats.norm does it
    z = _ndtri(alpha)
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    return float(mean) + sd * float(pdf) / (1.0 - alpha)
