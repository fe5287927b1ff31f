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
L(x), ``noise_scale(x)`` is the scale above and ``cvar(x, alpha)`` is the
exact CVaR at x.  The loss at any point is N(L(x), noise_scale(x)^2), so
that CVaR is the Gaussian closed form (``risk.gaussian_cvar_oracle``).

For l0 (the quadratic bowl) the global minimum of the CVaR surface also
has a near-closed form; the other functions serve as harder search
targets without analytic optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .risk import _check_array, _check_count, _check_number, gaussian_cvar_oracle

__all__ = [
    "BENCHMARK_IDS",
    "BenchmarkLoss",
    "l0_min_cvar_oracle",
]


# The functions take a point as a list of Python floats (see BenchmarkLoss)
# and loop over it in float arithmetic.  A square is written as a product,
# because a float's ** raises OverflowError where a product overflows to
# inf as NumPy's square does.  Sums are explicit loops, because the builtin
# sum() of floats is compensated from Python 3.12 on and would make values
# depend on the Python version.

_TWO_PI = 2.0 * math.pi


def _l0(x: list, centre: float = 0.0) -> float:
    # squared distance to (centre, ..., centre); v - 0.0 is v exactly
    total = 0.0
    for v in x:
        d = v - centre
        total += d * d
    return total


def _powell(x: list) -> float:
    # 1-based sum over d = 2 .. D-2; each term touches x_{d-1} .. x_{d+2}
    total = 0.0
    for a, b, c, d in zip(x, x[1:], x[2:], x[3:]):
        p = a + 10.0 * b
        q = c - d
        r = b - 2.0 * c
        s = a - d
        r2 = r * r
        s2 = s * s
        total += p * p + 5.0 * (q * q) + r2 * r2 + 10.0 * (s2 * s2)
    return total


def _rosenbrock(x: list) -> float:
    total = 0.0
    for a, b in zip(x, x[1:]):
        p = a - 1.0
        q = a * a - b
        total += p * p + 100.0 * (q * q)
    return total


def _rastrigin(x: list) -> float:
    total = 0.0
    for v in x:
        total += v * v - 10.0 * math.cos(_TWO_PI * v)
    return total - 10.0 * len(x) - 1.0


def _pinter(x: list) -> float:
    # neighbours wrap cyclically: x_0 = x_D and x_{D+1} = x_1
    total = 0.0
    for i, (prev, v, nxt) in enumerate(zip(x[-1:] + x[:-1], x, x[1:] + x[:1]), 1):
        a = math.sin(prev * math.sin(v) - v + math.sin(nxt))
        b = prev * prev - 2.0 * v + 3.0 * nxt - math.cos(v) + 1.0
        total += i * v * v + 20.0 * i * (a * a) + i * math.log10(1.0 + i * b * b)
    return total


def _levy(x: list) -> float:
    y = [1.0 + (v - 1.0) / 4.0 for v in x]
    s = math.sin(math.pi * y[0])
    total = s * s
    for v in y[:-1]:
        p = v - 1.0
        s = math.sin(math.pi * v + 1.0)
        total += p * p * (1.0 + 10.0 * (s * s))
    p = y[-1] - 1.0
    s = math.sin(_TWO_PI * y[-1])
    return -(total + p * p * (1.0 + 10.0 * (s * s)))


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

    The id and the dimension are checked on construction.  One private
    ``_location_scale`` serves every method: it checks the point, turns it
    into a list of Python floats and computes L(x) and noise_scale(x) on
    it, because a search evaluates one small point per candidate, where
    plain float arithmetic is several times cheaper than NumPy calls.
    ``simulate`` forms its losses from m standard normals z, drawn by one
    ``rng.standard_normal(m)`` call or given, by ``z *= s; z += L`` in
    place: one formula, so equal normals give equal bits on every route.
    A value that overflows is inf, as in NumPy, never an OverflowError.
    """

    benchmark_id: str
    dim: int

    def __post_init__(self):
        if self.benchmark_id not in BENCHMARK_IDS:
            raise ValueError(
                f"unknown benchmark {self.benchmark_id!r}, expected one of {BENCHMARK_IDS}"
            )
        object.__setattr__(self, "dim", _check_count(self.dim, "dim"))
        if self.benchmark_id == "powell" and self.dim < 4:
            raise ValueError("powell requires dim >= 4")

    def _location_scale(self, x) -> tuple[float, float]:
        """(L(x), noise_scale(x)) at x, checked: a finite point of shape (dim,)."""
        try:
            arr = np.asarray(x, dtype=float)
        except OverflowError:  # an int beyond the float range: the array rule refuses it
            arr = _check_array(x, "x")
        if arr.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {arr.shape}")
        vals = arr.tolist()
        if not all(map(math.isfinite, vals)):  # cheaper than the rule per value
            _check_number(next(v for v in vals if not math.isfinite(v)), "x")
        func, centre = _BENCHMARKS[self.benchmark_id]
        try:
            loc = func(vals)
        except ValueError:
            # a sine or cosine of an argument that overflowed to inf, where
            # NumPy's gives nan
            loc = math.nan
        return loc, math.sqrt(1.0 + 100.0 * _l0(vals, centre))

    def deterministic(self, x) -> float:
        """Noise-free value of the benchmark at x."""
        return self._location_scale(x)[0]

    def noise_scale(self, x) -> float:
        """Noise standard deviation sqrt(1 + 100 ||x - centre||^2); always >= 1."""
        return self._location_scale(x)[1]

    def simulate(self, x, m: int, rng: np.random.Generator,
                 normals: np.ndarray | None = None) -> np.ndarray:
        """m independent noisy loss draws at x.

        Without ``normals``, m standard normals are drawn from rng by one
        ``standard_normal(m)`` call.  ``normals`` is instead a float64
        array of shape (m,) holding m standard normals the caller drew from
        rng, which is then not used.  Either way the losses are formed in
        the normals in place, ``normals *= scale; normals += loc``, and
        that array is returned, so the same normals give the same bits.
        """
        m = _check_count(m, "m")
        loc, scale = self._location_scale(x)
        if normals is None:
            normals = rng.standard_normal(m)
        elif not (isinstance(normals, np.ndarray) and normals.dtype == np.float64
                  and normals.shape == (m,)):
            raise ValueError(f"normals must be a float64 array of shape ({m},)")
        normals *= scale
        normals += loc
        return normals

    def cvar(self, x, alpha: float) -> float:
        """Exact CVaR at level alpha of the noisy loss at x: the Gaussian
        closed form L(x) + noise_scale(x) * pdf(ppf(alpha)) / (1 - alpha)."""
        return gaussian_cvar_oracle(*self._location_scale(x), alpha)


def l0_min_cvar_oracle(dim: int, alpha: float) -> tuple[np.ndarray, float]:
    """Global minimum of the l0 CVaR surface: (argmin point, value).

    For fixed distance to the noise centre, the quadratic term is minimized
    on the all-equal ray x = t * ones, so the problem reduces to the
    strictly convex profile D t^2 + c sqrt(1 + 100 D (t - 1)^2), with c the
    standard normal CVaR at alpha.  Its minimizer lies in [0, 1]; the sign
    of its slope is bisected there to machine precision.  At alpha = 0,
    c = 0 and the minimum is the origin.
    """
    dim = _check_count(dim, "dim")
    c = gaussian_cvar_oracle(0.0, 1.0, alpha)  # checks alpha
    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        gap = mid - 1.0
        if 2.0 * mid + 100.0 * c * gap / math.sqrt(1.0 + 100.0 * dim * gap**2) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    value = dim * lo * lo + math.sqrt(1.0 + 100.0 * dim * (lo - 1.0) ** 2) * c
    return np.full(dim, lo), value
