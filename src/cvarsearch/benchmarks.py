"""Noisy benchmark losses for the search engines.

Six deterministic test functions, each wrapped with state-dependent
additive Gaussian noise:

    loss(x, xi) = L(x) + noise_scale(x) * xi,    xi ~ N(0, 1)
    noise_scale(x) = sqrt(1 + 100 * sum_d (x_d - c)^2)

The noise centre c is 1 for l0, powell, rastrigin and pinter, and 2 for
rosenbrock and levy, so the low-noise point never coincides with the
noise-free minimizer and the tail objective genuinely trades off mean
against dispersion.

One benchmark at one dimension is a ``BenchmarkLoss(benchmark_id, dim)``:
``simulate(x, m, rng)`` draws the noisy losses, ``deterministic(x)`` is
L(x) and ``noise_scale(x)`` is the scale above.

For l0 (the quadratic bowl) the per-point loss is exactly Gaussian, so the
CVaR surface and its global minimum have closed or near-closed forms; the
other functions serve as harder search targets without analytic optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .risk import gaussian_cvar_oracle

__all__ = [
    "BENCHMARK_IDS",
    "BenchmarkLoss",
    "l0_cvar_oracle",
    "l0_min_cvar_oracle",
]


def _l0(x: np.ndarray) -> float:
    return float((x * x).sum())


def _powell(x: np.ndarray) -> float:
    # 1-based sum over d = 2 .. D-2; each term touches x_{d-1} .. x_{d+2}
    a = x[:-3]
    b = x[1:-2]
    c = x[2:-1]
    d = x[3:]
    return float(
        np.sum((a + 10.0 * b) ** 2)
        + 5.0 * np.sum((c - d) ** 2)
        + np.sum((b - 2.0 * c) ** 4)
        + 10.0 * np.sum((a - d) ** 4)
    )


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum((x[:-1] - 1.0) ** 2 + 100.0 * (x[:-1] ** 2 - x[1:]) ** 2))


def _rastrigin(x: np.ndarray) -> float:
    n = x.size
    return float(np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)) - 10.0 * n - 1.0)


def _pinter(x: np.ndarray) -> float:
    # neighbours wrap cyclically: x_0 = x_D and x_{D+1} = x_1
    n = x.size
    d = np.arange(1, n + 1, dtype=float)
    prev = np.roll(x, 1)
    nxt = np.roll(x, -1)
    s1 = np.sum(d * x * x)
    s2 = np.sum(20.0 * d * np.sin(prev * np.sin(x) - x + np.sin(nxt)) ** 2)
    inner = prev * prev - 2.0 * x + 3.0 * nxt - np.cos(x) + 1.0
    s3 = np.sum(d * np.log10(1.0 + d * inner * inner))
    return float(s1 + s2 + s3)


def _levy(x: np.ndarray) -> float:
    y = 1.0 + (x - 1.0) / 4.0
    head = -math.sin(math.pi * y[0]) ** 2
    mid = -np.sum((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[:-1] + 1.0) ** 2))
    tail = -((y[-1] - 1.0) ** 2) * (1.0 + 10.0 * math.sin(2.0 * math.pi * y[-1]) ** 2)
    return float(head + mid + tail)


# benchmark id -> (noise-free function, noise centre)
_BENCHMARKS = {
    "l0": (_l0, 1.0),
    "powell": (_powell, 1.0),
    "rosenbrock": (_rosenbrock, 2.0),
    "rastrigin": (_rastrigin, 1.0),
    "pinter": (_pinter, 1.0),
    "levy": (_levy, 2.0),
}

BENCHMARK_IDS = tuple(_BENCHMARKS)


@dataclass(frozen=True)
class BenchmarkLoss:
    """One benchmark at one dimension: the loss model the engines consume.

    The id and the dimension are checked on construction, every point on
    entry to a method.
    """

    benchmark_id: str
    dim: int

    def __post_init__(self):
        if self.benchmark_id not in BENCHMARK_IDS:
            raise ValueError(
                f"unknown benchmark {self.benchmark_id!r}, expected one of {BENCHMARK_IDS}"
            )
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        if self.benchmark_id == "powell" and int(self.dim) < 4:
            raise ValueError("powell requires dim >= 4")
        object.__setattr__(self, "dim", int(self.dim))

    def _point(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("x must be finite")
        return arr

    def _scale(self, arr: np.ndarray) -> float:
        diff = arr - _BENCHMARKS[self.benchmark_id][1]
        return math.sqrt(1.0 + 100.0 * float(diff @ diff))

    def deterministic(self, x) -> float:
        """Noise-free value of the benchmark at x."""
        return _BENCHMARKS[self.benchmark_id][0](self._point(x))

    def noise_scale(self, x) -> float:
        """Noise standard deviation sqrt(1 + 100 ||x - centre||^2); always >= 1."""
        return self._scale(self._point(x))

    def simulate(self, x, m: int, rng: np.random.Generator) -> np.ndarray:
        """m independent noisy loss draws at x."""
        m = int(m)
        if m < 1:
            raise ValueError("m must be >= 1")
        arr = self._point(x)
        base = _BENCHMARKS[self.benchmark_id][0](arr)
        # in place, one allocation: the same product and sum per element as
        # base + scale * draws
        out = rng.standard_normal(m)
        out *= self._scale(arr)
        out += base
        return out


def l0_cvar_oracle(x, alpha: float) -> float:
    """Exact CVaR of the noisy l0 loss at x.

    The loss at x is N(sum x^2, noise_scale(x)^2), so its CVaR is the
    Gaussian closed form.
    """
    loss = BenchmarkLoss("l0", np.size(x))
    return gaussian_cvar_oracle(loss.deterministic(x), loss.noise_scale(x), alpha)


def _l0_profile(t, dim: int, tail_const: float):
    # CVaR along the symmetric ray x = t * ones; t a scalar or a grid
    return dim * t * t + np.sqrt(1.0 + 100.0 * dim * (t - 1.0) ** 2) * tail_const


def l0_min_cvar_oracle(dim: int, alpha: float) -> tuple[np.ndarray, float]:
    """Global minimum of the l0 CVaR surface: (argmin point, value).

    For fixed distance to the noise centre, the quadratic term is minimized
    on the all-equal ray, so the problem reduces to one dimension.  That
    profile is scanned on a dense grid over t in [-0.5, 1.5] and refined to
    1e-6 around the best cell.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    tail_const = gaussian_cvar_oracle(0.0, 1.0, alpha)
    grid = np.linspace(-0.5, 1.5, 100_001)
    values = _l0_profile(grid, dim, tail_const)
    i = int(np.argmin(values))
    lo = grid[max(0, i - 1)]
    hi = grid[min(grid.size - 1, i + 1)]
    res = optimize.minimize_scalar(
        _l0_profile, bounds=(lo, hi), args=(dim, tail_const), method="bounded",
        options={"xatol": 1e-9},
    )
    t, value = (float(res.x), float(res.fun))
    if value > values[i]:
        t, value = float(grid[i]), float(values[i])
    return np.full(dim, t), value
