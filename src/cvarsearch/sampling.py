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

import math
from dataclasses import dataclass

import numpy as np

from .risk import _check_count

__all__ = [
    "SamplingParams",
    "ProjectionBox",
    "sufficient_statistics",
    "expected_sufficient_statistics",
    "sample",
    "to_natural",
]


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class SamplingParams:
    """Moment-view parameters: per-coordinate mean and variance (> 0)."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        variance = _as_vector(self.variance, "variance")
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
    """Feasible box for the moment view: every coordinate's mean is clamped
    into [mean_lo, mean_hi] and its variance into [var_lo, var_hi].

    The variance floor keeps the family non-degenerate; 1e-6 is small
    enough that it only binds once the search has effectively converged.
    """

    mean_lo: float
    mean_hi: float
    var_lo: float
    var_hi: float

    def __post_init__(self):
        for name in ("mean_lo", "mean_hi", "var_lo", "var_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.mean_lo <= self.mean_hi:
            raise ValueError("mean_lo must be <= mean_hi")
        if not self.var_lo > 0:
            raise ValueError("var_lo must be strictly positive")
        if not self.var_lo <= self.var_hi:
            raise ValueError("var_lo must be <= var_hi")


def sufficient_statistics(x) -> np.ndarray:
    """Statistic vector (x, x^2) of length 2 D.

    Accepts a single point of shape (D,) or a batch of shape (n, D), in
    which case rows are mapped independently to shape (n, 2 D).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"x must have shape (D,) or (n, D), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
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


def _project_moments(mean: np.ndarray, variance: np.ndarray,
                     box: ProjectionBox) -> tuple[np.ndarray, np.ndarray]:
    return (np.clip(mean, box.mean_lo, box.mean_hi),
            np.clip(variance, box.var_lo, box.var_hi))


def _project_raw_natural(theta: np.ndarray, box: ProjectionBox) -> SamplingParams:
    """Clamp a raw natural-coordinate vector into the box, moment view out.

    Additive updates can leave the family's domain (eta2 >= 0, which has no
    finite variance).  Such coordinates are sent to the variance ceiling,
    the closest feasible curvature, before the moment clamp.  theta holds
    2 D entries, so it sets D; the box bounds every coordinate alike.
    """
    d = theta.size // 2
    eta1, eta2 = theta[:d], theta[d:]
    ok = eta2 < 0
    variance = np.where(ok, -0.5 / np.where(ok, eta2, -1.0), np.inf)
    var_c = np.clip(variance, box.var_lo, box.var_hi)
    # eta1 * finite variance cannot produce NaN; out-of-domain coordinates
    # use the already clamped variance so the product stays finite.
    mean = eta1 * np.where(np.isfinite(variance), variance, var_c)
    mean_c, var_c = _project_moments(mean, var_c, box)
    return SamplingParams(mean=mean_c, variance=var_c)
