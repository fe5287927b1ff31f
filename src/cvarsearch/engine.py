"""Core search loop: weighted-statistic gradient steps on the sampling family.

One iteration, at risk level alpha_k:

1. draw N_k candidates from the current Gaussian family;
2. estimate each candidate's CVaR from M_k fresh loss simulations;
3. shape the negated estimates around their top-rho quantile and normalize
   into weights;
4. the gradient estimate is the weighted statistic mean minus the family's
   analytic statistic mean; the curvature proxy is the sample variance
   matrix of the statistics;
5. take a regularized Newton step in natural coordinates and clamp the
   result into the feasible box.

``run_gass_cvar`` keeps alpha fixed at the target; ``run_gass_cvar_arl``
starts low and ramps it with the gradient-norm schedule, spending only
ceil(eff / (1 - alpha_k)) simulations per candidate along the way.  Both
re-evaluate their reported solution with a fresh simulation budget, and
that extra budget is accounted separately from the search budget.

Randomness: every consumer draws from a substream keyed by its role and
position (iteration, candidate index), so results do not depend on
evaluation order or worker count.

Memory: candidates are simulated and reduced to CVaR estimates in row
blocks of at most ``_BLOCK_BYTES``, so a search or re-evaluation holds
O(block) loss draws at a time, not the O(N_k * M_k) loss matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy import linalg

from .risk import empirical_cvar
from .sampling import (
    NaturalParams,
    ProjectionBox,
    SamplingParams,
    _project_raw_natural,
    expected_sufficient_statistics,
    sample,
    sufficient_statistics,
    to_natural,
)
from .schedule import RiskSchedule, inner_sample_size, update_risk_level
from .shaping import ShapeConfig, sample_quantile_threshold, shape
from .streams import as_seed_sequence, generator, substream

__all__ = [
    "LossModel",
    "PowerLawStepSize",
    "ConstantSchedule",
    "PowerGrowthSchedule",
    "GassConfig",
    "IterationRecord",
    "RunResult",
    "GRAD_THRESHOLD",
    "MAX_ITERATIONS",
    "normalized_weights",
    "weighted_suffstat_mean",
    "sample_variance_matrix",
    "gradient_estimate",
    "newton_step_vector",
    "newton_update",
    "evaluate_candidates",
    "run_gass_cvar",
    "run_gass_cvar_arl",
]

logger = logging.getLogger(__name__)

# termination reasons
GRAD_THRESHOLD = "grad_threshold"
MAX_ITERATIONS = "max_iterations"

# substream realms under the run's root seed
_CANDIDATE_REALM = 0
_LOSS_REALM = 1
_FINAL_REALM = 2

# bytes of loss draws held at once (at least one row); the CVaR reduction
# adds about three transients of this size
_BLOCK_BYTES = 1 << 20


class LossModel(Protocol):
    """What the engines require of a loss: fresh noisy simulations.

    ``deterministic_value`` is optional diagnostics; the search itself only
    ever calls ``simulate``.
    """

    def simulate(self, x, m: int, rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class PowerLawStepSize:
    """step(k) = a / (k + b)^gamma; valid for gamma in (0.5, 1], a, b > 0."""

    a: float
    b: float
    gamma: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("step-size a and b must be > 0")
        if not (0.5 < self.gamma <= 1.0):
            raise ValueError(f"step-size gamma must lie in (0.5, 1], got {self.gamma}")

    def __call__(self, k: int) -> float:
        return self.a / (k + self.b) ** self.gamma


@dataclass(frozen=True)
class ConstantSchedule:
    """Constant per-iteration count."""

    value: int

    def __call__(self, k: int) -> int:
        return self.value


@dataclass(frozen=True)
class PowerGrowthSchedule:
    """count(k) = ceil(base * max(k, 1)^exponent); k = 0 maps to base."""

    base: int
    exponent: float

    def __call__(self, k: int) -> int:
        return math.ceil(self.base * max(k, 1) ** self.exponent)


@dataclass(frozen=True)
class GassConfig:
    """Everything one search run needs besides the loss and risk level."""

    init_params: SamplingParams
    box: ProjectionBox
    shape: ShapeConfig
    step_size: Callable[[int], float]
    n_candidates: Callable[[int], int]
    epsilon: float = 1e-10
    max_iterations: int = 1000
    grad_norm_stop: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.grad_norm_stop) and self.grad_norm_stop >= 0):
            raise ValueError("grad_norm_stop must be finite and >= 0")
        if self.init_params.dim != self.box.dim:
            raise ValueError("init_params and box dimension mismatch")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one iteration.

    ``best_candidate`` is the iteration's argmin of estimated CVaR among
    its own candidates, and ``best_cvar_estimate`` that estimate, at the
    iteration's risk level.  ``params_snapshot`` is the family the
    candidates were drawn from.  ``cumulative_loss_evals`` counts search
    simulations through this iteration; re-evaluation budget is kept out
    and reported on the run result instead.
    """

    k: int
    alpha: float
    grad_norm: float
    best_cvar_estimate: float
    cumulative_loss_evals: int
    params_snapshot: SamplingParams
    best_candidate: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """A finished run: telemetry plus the re-evaluated reported solution.

    ``record_values`` holds fresh target-level CVaR values of each
    iteration's best candidate when those were computed (always for the
    ramping variant, on request otherwise); ``final_eval_count`` is the
    simulation budget those re-evaluations consumed.
    """

    records: list[IterationRecord]
    final_best_candidate: np.ndarray
    final_best_cvar: float
    terminated_by: str
    record_values: np.ndarray | None = None
    final_eval_count: int = 0


def normalized_weights(shape_values) -> np.ndarray:
    """Shape values scaled to sum to one.

    An all-zero input (every score shaped to nothing, possible only with
    degenerate scores) falls back to uniform weights.
    """
    arr = np.asarray(shape_values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"shape_values must be a non-empty 1-d vector, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("shape_values must be finite")
    if np.any(arr < 0):
        raise ValueError("shape_values must be >= 0")
    total = arr.sum()
    if total <= 0.0:
        logger.warning("all shape values are zero; falling back to uniform weights")
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def weighted_suffstat_mean(weights, stats) -> np.ndarray:
    """Weighted mean of statistic rows: weights @ stats."""
    w = np.asarray(weights, dtype=float)
    s = np.asarray(stats, dtype=float)
    if w.ndim != 1 or s.ndim != 2 or w.size != s.shape[0]:
        raise ValueError(
            f"need weights (n,) and stats (n, p), got {w.shape} and {s.shape}"
        )
    return w @ s


def sample_variance_matrix(stats) -> np.ndarray:
    """Unbiased sample covariance of statistic rows.

    Evaluated in centred form, which is algebraically the Gram-minus-outer
    estimator but keeps round-off independent of the statistics' offset.
    """
    arr = np.asarray(stats, dtype=float)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"stats must have shape (n, p), got {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise ValueError("need at least 2 statistic rows")
    dev = arr - arr.mean(axis=0)
    return (dev.T @ dev) / (n - 1)


def gradient_estimate(weighted_mean, analytic_mean) -> np.ndarray:
    """Search gradient: weighted statistic mean minus the family's mean."""
    w = np.asarray(weighted_mean, dtype=float)
    a = np.asarray(analytic_mean, dtype=float)
    if w.shape != a.shape or w.ndim != 1:
        raise ValueError(f"mean vectors must match, got {w.shape} and {a.shape}")
    return w - a


def newton_step_vector(theta, grad, var_matrix, step_size: float,
                       epsilon: float) -> np.ndarray:
    """Pre-projection update theta + step * (var_matrix + eps I)^-1 grad.

    The regularized system is symmetric positive definite by construction;
    it is solved by Cholesky, with a symmetric-indefinite solve as the
    fallback for matrices whose smallest eigenvalue sits within round-off
    of -epsilon.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(grad, dtype=float)
    v = np.asarray(var_matrix, dtype=float)
    p = theta.size
    if g.shape != (p,) or v.shape != (p, p):
        raise ValueError(
            f"shape mismatch: theta {theta.shape}, grad {g.shape}, var {v.shape}"
        )
    if not (math.isfinite(step_size) and step_size > 0):
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    a = v + epsilon * np.eye(p)
    try:
        direction = linalg.cho_solve(linalg.cho_factor(a, lower=True), g)
    except linalg.LinAlgError:
        direction = linalg.solve(a, g, assume_a="sym")
    return theta + step_size * direction


def newton_update(nat: NaturalParams, grad, var_matrix, step_size: float,
                  epsilon: float, box: ProjectionBox) -> NaturalParams:
    """One projected update of the natural parameters."""
    raw = newton_step_vector(nat.as_vector(), grad, var_matrix, step_size, epsilon)
    return to_natural(_project_raw_natural(raw, box))


def _candidate_cvars(loss: LossModel, xs: Sequence, alpha: float, m: int,
                     seq: np.random.SeedSequence, *key: int, first: int = 0) -> np.ndarray:
    """CVaR estimate of each candidate in xs from m fresh simulations.

    Candidate i draws from ``substream(seq, *key, first + i)``.  Rows are
    simulated into one reused buffer of at most ``_BLOCK_BYTES``, or of one
    row when a row is larger, and reduced block by block; each row's
    estimate depends only on that row, so the values do not depend on the
    block size.
    """
    n = len(xs)
    rows = max(1, min(n, _BLOCK_BYTES // (8 * m)))
    block = np.empty((rows, m))
    out = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for i in range(start, stop):
            block[i - start] = loss.simulate(
                xs[i], m, generator(substream(seq, *key, first + i))
            )
        out[start:stop] = empirical_cvar(block[:stop - start], alpha)
    return out


def evaluate_candidates(loss: LossModel, candidates: Sequence, alpha: float,
                        budget: int, seed) -> np.ndarray:
    """Fresh CVaR estimate per candidate, one substream each.

    Stream j depends only on (seed, j), so the values are independent of
    evaluation order.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    budget = int(budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _candidate_cvars(loss, candidates, alpha, budget, as_seed_sequence(seed))


def _clamp_moments(params: SamplingParams, box: ProjectionBox) -> SamplingParams:
    return SamplingParams(
        mean=np.clip(params.mean, box.mean_lo, box.mean_hi),
        variance=np.clip(params.variance, box.var_lo, box.var_hi),
    )


def _run_search(config: GassConfig, loss: LossModel, seed_seq, *,
                alpha_star: float, inner_budget: Callable[[int], int] | None = None,
                schedule: RiskSchedule | None = None,
                effective_size: int | None = None):
    """Shared loop; fixed risk level when schedule is None, ramped otherwise."""
    params = _clamp_moments(config.init_params, config.box)
    records: list[IterationRecord] = []
    cum_evals = 0
    terminated = MAX_ITERATIONS
    for k in range(config.max_iterations):
        if schedule is None:
            alpha_k = alpha_star
            m_k = int(inner_budget(k))
        else:
            alpha_k = schedule.alpha_current
            m_k = inner_sample_size(alpha_k, effective_size)
        if m_k < 1:
            raise ValueError(f"inner budget must be >= 1, got {m_k} at iteration {k}")
        n_k = int(config.n_candidates(k))
        if n_k < 2:
            raise ValueError(f"candidate count must be >= 2, got {n_k} at iteration {k}")
        beta_k = float(config.step_size(k))
        if not (math.isfinite(beta_k) and beta_k > 0):
            raise ValueError(f"step size must be positive and finite, got {beta_k}")

        xs = sample(params, n_k, generator(substream(seed_seq, _CANDIDATE_REALM, k)))
        cvars = _candidate_cvars(loss, xs, alpha_k, m_k, seed_seq, _LOSS_REALM, k)
        cum_evals += n_k * m_k

        scores = -cvars
        gamma = sample_quantile_threshold(scores, config.shape.rho)
        weights = normalized_weights(shape(scores, gamma, config.shape))
        stats = sufficient_statistics(xs)
        grad = gradient_estimate(
            weighted_suffstat_mean(weights, stats),
            expected_sufficient_statistics(params),
        )
        grad_norm = float(np.linalg.norm(grad))

        i_best = int(np.argmin(cvars))
        records.append(IterationRecord(
            k=k,
            alpha=alpha_k,
            grad_norm=grad_norm,
            best_cvar_estimate=float(cvars[i_best]),
            cumulative_loss_evals=cum_evals,
            params_snapshot=params,
            best_candidate=xs[i_best].copy(),
        ))

        raw = newton_step_vector(
            to_natural(params).as_vector(), grad, sample_variance_matrix(stats),
            beta_k, config.epsilon,
        )
        params = _project_raw_natural(raw, config.box)
        if schedule is not None:
            schedule = update_risk_level(schedule, grad_norm)
        if grad_norm <= config.grad_norm_stop:
            terminated = GRAD_THRESHOLD
            break
    return records, terminated


def run_gass_cvar(config: GassConfig, loss: LossModel, alpha_star: float,
                  inner_budget: Callable[[int], int], seed, *,
                  final_eval_budget: int = 100_000,
                  evaluate_records: bool = False) -> RunResult:
    """Fixed-level search: every iteration estimates CVaR at alpha_star.

    Reports the candidate with the best in-run estimate across all
    iterations, re-evaluated with ``final_eval_budget`` fresh simulations.
    With ``evaluate_records`` every iteration's best candidate gets such a
    re-evaluation, which downstream reporting uses for budget curves.
    """
    if not (0.0 <= float(alpha_star) < 1.0):
        raise ValueError(f"alpha_star must lie in [0, 1), got {alpha_star}")
    if int(final_eval_budget) < 1:
        raise ValueError("final_eval_budget must be >= 1")
    seed_seq = as_seed_sequence(seed)
    records, terminated = _run_search(
        config, loss, seed_seq, alpha_star=float(alpha_star), inner_budget=inner_budget
    )
    estimates = np.array([r.best_cvar_estimate for r in records])
    j = int(np.argmin(estimates))
    final_seq = substream(seed_seq, _FINAL_REALM)
    if evaluate_records:
        values = evaluate_candidates(
            loss, [r.best_candidate for r in records], float(alpha_star),
            final_eval_budget, final_seq,
        )
        final_value = float(values[j])
        final_evals = int(final_eval_budget) * len(records)
    else:
        values = None
        final_value = float(_candidate_cvars(
            loss, [records[j].best_candidate], float(alpha_star),
            int(final_eval_budget), final_seq, first=j,
        )[0])
        final_evals = int(final_eval_budget)
    return RunResult(
        records=records,
        final_best_candidate=records[j].best_candidate,
        final_best_cvar=final_value,
        terminated_by=terminated,
        record_values=values,
        final_eval_count=final_evals,
    )


def run_gass_cvar_arl(config: GassConfig, loss: LossModel, schedule: RiskSchedule,
                      effective_size: int, seed, *,
                      final_eval_budget: int = 100_000) -> RunResult:
    """Ramped-level search: alpha follows the gradient-norm schedule.

    In-run estimates at different levels are not comparable, so every
    iteration's best candidate is re-evaluated at the target level with
    fresh simulations and the argmin of those values is reported.
    """
    seed_seq = as_seed_sequence(seed)
    alpha_star = schedule.alpha_target
    records, terminated = _run_search(
        config, loss, seed_seq, alpha_star=alpha_star,
        schedule=schedule, effective_size=int(effective_size),
    )
    values = evaluate_candidates(
        loss, [r.best_candidate for r in records], alpha_star,
        final_eval_budget, substream(seed_seq, _FINAL_REALM),
    )
    j = int(np.argmin(values))
    return RunResult(
        records=records,
        final_best_candidate=records[j].best_candidate,
        final_best_cvar=float(values[j]),
        terminated_by=terminated,
        record_values=values,
        final_eval_count=int(final_eval_budget) * len(records),
    )
