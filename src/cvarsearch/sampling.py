"""Independent-Gaussian sampling family in moment and natural coordinates.

The search distribution is a diagonal Gaussian over R^D.  It is handled in
two equivalent coordinate systems:

* moment view ``(mean, variance)``, used for sampling, reporting and for
  clamping into the feasible box, one mean interval and one variance
  interval shared by every coordinate;
* natural view ``(eta1, eta2) = (mean/variance, -1/(2 variance))``, the
  exponential-family parameters in which the search update is additive.
  It is only ever a raw stacked vector: ``to_natural`` produces it, and
  ``_project_raw_natural`` maps an updated one back into the box.

The sufficient statistic of a point x is ``(x_1..x_D, x_1^2..x_D^2)``,
stacked first moments then squares, so vectors in natural coordinates and
statistic space share one layout of length 2 D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk import _check_array, _check_count, _check_number

__all__ = [
    "SamplingParams",
    "ProjectionBox",
    "sufficient_statistics",
    "expected_sufficient_statistics",
    "sample",
    "to_natural",
]


@dataclass(frozen=True)
class SamplingParams:
    """Moment-view parameters: per-coordinate mean and variance (> 0)."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = _check_array(self.mean, "mean")
        variance = _check_array(self.variance, "variance")
        if variance.shape != mean.shape:
            raise ValueError("mean and variance must have the same length")
        if not np.all(variance > 0):
            raise ValueError("variance must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ProjectionBox:
    """Feasible box for the moment view: every coordinate's mean lies in
    [mean_lo, mean_hi] and its variance in [var_lo, var_hi].  A search
    starts inside it (``GassConfig`` checks) and clamps each update into it.

    The variance floor keeps the family non-degenerate; 1e-6 is small
    enough that it only binds once the search has effectively converged.

    Its reach max(|mean_lo|, |mean_hi|) + 10 sqrt(var_hi) bounds the |x| of
    its candidates and must be at most 1e75, so that x^4, which the variance
    matrix and gradient norm of (x, x^2) take, stays below 1e300.  Its ratio
    max(|mean_lo|, |mean_hi|, 1) / var_lo bounds the natural coordinates
    |mean / variance| and 1 / variance of every family in it, and must be at
    most 1e150, so that they, and their products with a variance of at most
    1e150, as the reach allows, stay below 1e300.
    """

    mean_lo: float
    mean_hi: float
    var_lo: float
    var_hi: float

    def __post_init__(self):
        # each upper bound at or above its lower bound
        _check_number(self.mean_hi, "mean_hi", _check_number(self.mean_lo, "mean_lo"))
        _check_number(self.var_hi, "var_hi", _check_number(self.var_lo, "var_lo", 0, strict=True))
        reach = max(abs(self.mean_lo), abs(self.mean_hi)) + 10.0 * self.var_hi ** 0.5
        _check_number(reach, "box reach max(|mean_lo|, |mean_hi|) + 10 sqrt(var_hi)", most=1e75)
        ratio = max(abs(self.mean_lo), abs(self.mean_hi), 1.0) / self.var_lo
        _check_number(ratio, "box ratio max(|mean_lo|, |mean_hi|, 1) / var_lo", most=1e150)


def sufficient_statistics(x) -> np.ndarray:
    """Statistic vector (x, x^2) of length 2 D.

    Accepts a single point of shape (D,) or a batch of shape (n, D), in
    which case rows are mapped independently to shape (n, 2 D).
    """
    arr = _check_array(x, "x", (1, 2))
    return np.concatenate([arr, arr * arr], axis=-1)


def expected_sufficient_statistics(params: SamplingParams) -> np.ndarray:
    """E[(x, x^2)] under the family: (mean, mean^2 + variance)."""
    return np.concatenate([params.mean, params.mean**2 + params.variance])


def sample(params: SamplingParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points, returned as rows of an (n, D) array.

    The draw is a single batched call, so the result is bit-identical for a
    given generator state regardless of surrounding code.
    """
    n = _check_count(n, "n")
    std = np.sqrt(params.variance)
    return params.mean + std * rng.standard_normal((n, params.dim))


def to_natural(params: SamplingParams) -> np.ndarray:
    """Stacked natural coordinates (mean/variance, -1/(2 variance)), length 2 D."""
    return np.concatenate([params.mean / params.variance, -0.5 / params.variance])


def _project_raw_natural(theta: np.ndarray, box: ProjectionBox) -> SamplingParams:
    """Clamp a raw natural-coordinate vector into the box, moment view out.

    The only place the box is applied: each variance and each mean is
    clipped once.  Additive updates can leave the family's domain (eta2 >=
    0, which has no finite variance); such coordinates get the variance
    ceiling, the closest feasible curvature.  theta holds 2 D entries, so
    it sets D; the box bounds every coordinate alike.
    """
    d = theta.size // 2
    eta1, eta2 = theta[:d], theta[d:]
    ok = eta2 < 0
    variance = np.where(ok, -0.5 / np.where(ok, eta2, -1.0), np.inf)
    var_c = np.clip(variance, box.var_lo, box.var_hi)
    # eta1 * finite variance cannot produce NaN; out-of-domain coordinates
    # use the already clamped variance so the product stays finite.
    mean = eta1 * np.where(np.isfinite(variance), variance, var_c)
    return SamplingParams(mean=np.clip(mean, box.mean_lo, box.mean_hi), variance=var_c)
