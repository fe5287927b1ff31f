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

Steps 3-5 are one GASS update, the private ``_step``.  Its kernels
``normalized_weights``, ``sample_variance_matrix`` and
``newton_step_vector`` check nothing, because the objects that build their
inputs already guarantee them:

- the shape values lie in [0, 1]: ``empirical_cvar`` refuses non-finite
  losses, ``sample_quantile_threshold`` and ``shape`` refuse non-finite
  scores, and ``shape``'s logistic maps the rest into [0, 1]; the
  candidate at the threshold weighs the logistic's 0.5 at 0, so their sum
  is at least 0.5;
- ``PowerGrowthSchedule`` keeps N_k >= 2, as the sample variance needs;
- the sample variance matrix is symmetric positive semi-definite, and
  singular when N_k <= 2 D; the Newton step solves through its
  eigendecomposition with the eigenvalues floored at 0 before epsilon is
  added, so it is finite for every N_k >= 2 and has no fallback;
- ``PowerLawStepSize`` makes the step size positive and finite, and
  ``GassConfig`` the epsilon;
- every array shape derives from the family's parameters.

N_k = ceil(N * max(k, 1)^exponent) comes from a ``PowerGrowthSchedule``
(exponent 0 keeps it constant) and the step size from a
``PowerLawStepSize``.  Both check their parameters when built, and the
run functions check their budgets on entry, so every error about these
inputs is raised before the first simulation; the loop itself checks
nothing.

alpha_k always comes from a ``RiskSchedule``, and the per-candidate
budget M_k is a function of alpha_k.  ``run_gass_cvar_arl`` runs both
algorithms: started below the target, the schedule ramps alpha with the
gradient-norm decay and spends only ceil(eff / (1 - alpha_k)) simulations
per candidate along the way; started at the target (a zero gap), it never
moves, which is fixed-level GASS-CVaR.  It re-evaluates every iteration's
best candidate at the target level and reports the argmin of those fresh
values.  ``run_gass_cvar`` is the zero-gap search with a fixed
per-candidate budget and a single re-evaluation, of the candidate with the
best in-run estimate; the large-budget reference run uses it.
Re-evaluation budget is accounted separately from the search budget.

Randomness: every consumer draws from a substream keyed by its role and
position (iteration, candidate index), so results do not depend on
evaluation order or worker count.  The per-candidate streams of one
evaluation are built in one batch by ``streams.candidate_generators``,
which writes out NumPy's SeedSequence and PCG64 seeding arithmetic and
resets one PCG64 per candidate; each stream is bit-identical to NumPy's
own construction at the same key path.

Memory: candidates are simulated and reduced to CVaR estimates in row
blocks, so a search or re-evaluation holds O(block) loss draws at a time,
not the O(N_k * M_k) loss matrix: at most ``_BLOCK_BYTES`` in total, or
one row per thread when a row is larger.

Threads: from ``_THREAD_MIN_DRAWS`` draws per candidate, an evaluation
splits its candidates into contiguous index ranges, one per thread, each
with its own streams, block and slice of the result; below it, starting
threads costs more than they save.  The thread count is derived, never
set: the CPUs the process may run on, capped by the candidate count, and
lowered in each worker of a process pool so that workers x threads stays
within the CPUs.  Every row still depends only on its own stream, so no
value depends on the thread count.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .risk import _check_alpha, empirical_cvar
from .sampling import (
    ProjectionBox,
    SamplingParams,
    _project_moments,
    _project_raw_natural,
    expected_sufficient_statistics,
    sample,
    sufficient_statistics,
    to_natural,
)
from .schedule import RiskSchedule, inner_sample_size, update_risk_level
from .shaping import ShapeConfig, sample_quantile_threshold, shape
from .streams import as_seed_sequence, candidate_generators, generator, substream

__all__ = [
    "LossModel",
    "PowerLawStepSize",
    "PowerGrowthSchedule",
    "GassConfig",
    "IterationRecord",
    "RunResult",
    "GRAD_THRESHOLD",
    "MAX_ITERATIONS",
    "evaluate_candidates",
    "run_gass_cvar",
    "run_gass_cvar_arl",
]

# termination reasons
GRAD_THRESHOLD = "grad_threshold"
MAX_ITERATIONS = "max_iterations"

# substream realms under the run's root seed
_CANDIDATE_REALM = 0
_LOSS_REALM = 1
_FINAL_REALM = 2

# bytes of loss draws held at once (at least one row per thread); the CVaR
# reduction adds one transient of this size, the partition copy it forms
# the excess in
_BLOCK_BYTES = 1 << 20

# draws per candidate from which an evaluation is split across threads;
# the break-even measured on a 2-vCPU host is about 2,000
_THREAD_MIN_DRAWS = 2000
# threads per evaluation; None is every CPU the process may run on
_THREADS: int | None = None


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_threads(count: int):
    """Cap the threads of every later evaluation in this process (a process
    pool's initializer)."""
    global _THREADS
    _THREADS = count


class LossModel(Protocol):
    """What the engines require of a loss: ``simulate`` returns exactly m
    fresh noisy simulations, shape (m,); any other shape is refused.

    ``rng`` is the candidate's own stream, bit-identical to NumPy's
    ``default_rng`` at the candidate's key path.  The engine resets that
    same generator to the next candidate's stream after the call returns,
    so a loss must draw from it only during the call and must not keep it;
    it cannot spawn.

    From ``_THREAD_MIN_DRAWS`` draws per candidate, ``simulate`` may run on
    several threads at once, each call with its own generator, so a loss
    must not change shared state without its own lock.
    """

    def simulate(self, x, m: int, rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class PowerLawStepSize:
    """step(k) = a / (k + b)^gamma; valid for gamma in (0.5, 1], finite a, b > 0."""

    a: float
    b: float
    gamma: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.b)):
            raise ValueError(
                f"step-size a and b must be positive and finite, got {self.a} and {self.b}"
            )
        if not (0.5 < self.gamma <= 1.0):
            raise ValueError(f"step-size gamma must lie in (0.5, 1], got {self.gamma}")

    def __call__(self, k: int) -> float:
        return self.a / (k + self.b) ** self.gamma


@dataclass(frozen=True)
class PowerGrowthSchedule:
    """count(k) = ceil(base * max(k, 1)^exponent); k = 0 maps to base.

    Exponent 0 gives the constant count base.  base >= 2 and a finite
    exponent >= 0 keep every count >= 2, as the sample variance needs.
    """

    base: int
    exponent: float

    def __post_init__(self):
        if not self.base >= 2:
            raise ValueError(f"candidate count base must be >= 2, got {self.base}")
        if not (math.isfinite(self.exponent) and self.exponent >= 0):
            raise ValueError(f"growth exponent must be finite and >= 0, got {self.exponent}")

    def __call__(self, k: int) -> int:
        return math.ceil(self.base * max(k, 1) ** self.exponent)


@dataclass(frozen=True)
class GassConfig:
    """Everything one search run needs besides the loss and risk level."""

    init_params: SamplingParams
    box: ProjectionBox
    shape: ShapeConfig
    step_size: PowerLawStepSize
    n_candidates: PowerGrowthSchedule
    epsilon: float = 1e-10
    max_iterations: int = 1000
    grad_norm_stop: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if operator.index(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.grad_norm_stop) and self.grad_norm_stop >= 0):
            raise ValueError("grad_norm_stop must be finite and >= 0")
        object.__setattr__(self, "max_iterations", operator.index(self.max_iterations))


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

    ``record_values`` holds the fresh target-level CVaR value of every
    iteration's best candidate (``run_gass_cvar_arl``, which reports their
    argmin); it is None for ``run_gass_cvar``, which re-evaluates only the
    candidate with the best in-run estimate.  ``final_eval_count`` is the
    simulation budget the re-evaluations consumed.
    """

    records: list[IterationRecord]
    final_best_candidate: np.ndarray
    final_best_cvar: float
    terminated_by: str
    record_values: np.ndarray | None = None
    final_eval_count: int = 0


def normalized_weights(shape_values) -> np.ndarray:
    """Shape values scaled to sum to one.

    Requires a non-empty 1-d vector of finite values >= 0 with a positive
    sum.
    """
    arr = np.asarray(shape_values, dtype=float)
    return arr / arr.sum()


def sample_variance_matrix(stats: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of statistic rows.

    Requires a float array of shape (n, p) with n >= 2 and p >= 1.
    Evaluated in centred form, which is algebraically the Gram-minus-outer
    estimator but keeps round-off independent of the statistics' offset.
    """
    dev = stats - stats.mean(axis=0)
    return (dev.T @ dev) / (len(stats) - 1)


def newton_step_vector(theta: np.ndarray, grad: np.ndarray, var_matrix: np.ndarray,
                       step_size: float, epsilon: float) -> np.ndarray:
    """Pre-projection update theta + step * (var_matrix + eps I)^-1 grad.

    Requires float arrays theta and grad of shape (p,), a symmetric
    positive semi-definite var_matrix of shape (p, p), and a positive
    finite step size and epsilon.  The system is solved through one
    eigendecomposition var_matrix = Q diag(w) Q^T as
    Q ((Q^T grad) / (max(w, 0) + eps)): eigenvalues that round-off pushes
    below zero count as zero, so every divisor is at least eps.  The step
    is then finite even when the matrix is singular, as it is with no more
    candidates than statistics, and there is no second path.
    """
    w, q = np.linalg.eigh(var_matrix)
    direction = q @ ((q.T @ grad) / (np.maximum(w, 0.0) + epsilon))
    return theta + step_size * direction


def _candidate_cvars(loss: LossModel, xs: Sequence, alpha: float, m: int,
                     seq: np.random.SeedSequence, *key: int, first: int = 0) -> np.ndarray:
    """CVaR estimate of each candidate in xs from m fresh simulations.

    Candidate i draws from the stream of ``substream(seq, *key, first +
    i)``; each index range builds its streams in one batch by
    ``candidate_generators``.  Rows are simulated into one reused buffer per
    range, of at most ``_BLOCK_BYTES`` over all ranges or of one row when a
    row is larger, and reduced block by block; each row's estimate depends
    only on that row, so the values depend neither on the block size nor on
    the split into ranges.  From ``_THREAD_MIN_DRAWS`` draws the ranges are
    contiguous, one per thread, and the calling thread takes the first; an
    error in the lowest failing range reaches the caller after every thread
    has finished.
    """
    n = len(xs)
    threads = min(n, _THREADS or _cpu_count()) if m >= _THREAD_MIN_DRAWS else 1
    rows = max(1, _BLOCK_BYTES // threads // (8 * m))
    out = np.empty(n)

    def fill(lo: int, hi: int):
        rngs = candidate_generators(seq, key, first + lo, hi - lo)
        block = np.empty((min(rows, hi - lo), m))
        for start in range(lo, hi, len(block)):
            stop = min(start + len(block), hi)
            for i in range(start, stop):
                draws = loss.simulate(xs[i], m, next(rngs))
                if np.shape(draws) != (m,):
                    raise ValueError(
                        f"loss.simulate returned shape {np.shape(draws)}, expected ({m},)")
                block[i - start] = draws
            out[start:stop] = empirical_cvar(block[:stop - start], alpha)

    if threads == 1:
        fill(0, n)
        return out
    bounds = [n * t // threads for t in range(threads + 1)]
    # created per call, so that no thread outlives it (a process pool forks)
    with ThreadPoolExecutor(threads - 1) as pool:
        rest = [pool.submit(fill, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        fill(bounds[0], bounds[1])
        for future in rest:
            future.result()
    return out


def evaluate_candidates(loss: LossModel, candidates: Sequence, alpha: float,
                        budget: int, seed) -> np.ndarray:
    """Fresh CVaR estimate per candidate, one substream each.

    Stream j depends only on (seed, j), so the values are independent of
    evaluation order.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    alpha = _check_alpha(alpha)
    budget = operator.index(budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _candidate_cvars(loss, candidates, alpha, budget, as_seed_sequence(seed))


def _step(params: SamplingParams, xs: np.ndarray, cvars: np.ndarray, k: int,
          config: GassConfig) -> tuple[SamplingParams, float]:
    """One GASS update from iteration k's candidates and their CVaR
    estimates: the projected next family and the gradient norm."""
    scores = -cvars
    gamma = sample_quantile_threshold(scores, config.shape.rho)
    weights = normalized_weights(shape(scores, gamma, config.shape))
    stats = sufficient_statistics(xs)
    grad = weights @ stats - expected_sufficient_statistics(params)
    raw = newton_step_vector(
        to_natural(params), grad, sample_variance_matrix(stats),
        config.step_size(k), config.epsilon,
    )
    return _project_raw_natural(raw, config.box), float(np.linalg.norm(grad))


def _run_search(config: GassConfig, loss: LossModel, seed_seq,
                schedule: RiskSchedule, inner_budget: Callable[[float], int]):
    """The search loop: alpha_k from the schedule, M_k = inner_budget(alpha_k)."""
    params = SamplingParams(*_project_moments(
        config.init_params.mean, config.init_params.variance, config.box))
    records: list[IterationRecord] = []
    cum_evals = 0
    terminated = MAX_ITERATIONS
    for k in range(config.max_iterations):
        alpha_k = schedule.alpha_current
        m_k = inner_budget(alpha_k)
        n_k = config.n_candidates(k)
        xs = sample(params, n_k, generator(substream(seed_seq, _CANDIDATE_REALM, k)))
        cvars = _candidate_cvars(loss, xs, alpha_k, m_k, seed_seq, _LOSS_REALM, k)
        cum_evals += n_k * m_k

        next_params, grad_norm = _step(params, xs, cvars, k, config)
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
        params = next_params
        schedule = update_risk_level(schedule, grad_norm)
        if grad_norm <= config.grad_norm_stop:
            terminated = GRAD_THRESHOLD
            break
    return records, terminated


def run_gass_cvar(config: GassConfig, loss: LossModel, alpha_star: float,
                  inner_budget: int, seed, *,
                  final_eval_budget: int = 100_000) -> RunResult:
    """Fixed-level search with ``inner_budget`` simulations per candidate.

    The zero-gap schedule keeps every iteration at alpha_star.  Reports the
    candidate with the best in-run estimate across all iterations,
    re-evaluated once with ``final_eval_budget`` fresh simulations; the
    other records are not re-evaluated, which keeps large-budget runs such
    as the reference optimum at one extra candidate evaluation.
    """
    m = operator.index(inner_budget)
    if m < 1:
        raise ValueError(f"inner_budget must be >= 1, got {m}")
    if operator.index(final_eval_budget) < 1:
        raise ValueError("final_eval_budget must be >= 1")
    schedule = RiskSchedule.start(alpha_star, alpha_star)
    seed_seq = as_seed_sequence(seed)
    records, terminated = _run_search(config, loss, seed_seq, schedule, lambda alpha: m)
    j = int(np.argmin([r.best_cvar_estimate for r in records]))
    final_value = _candidate_cvars(
        loss, [records[j].best_candidate], schedule.alpha_target,
        int(final_eval_budget), substream(seed_seq, _FINAL_REALM), first=j,
    )[0]
    return RunResult(
        records=records,
        final_best_candidate=records[j].best_candidate,
        final_best_cvar=float(final_value),
        terminated_by=terminated,
        final_eval_count=int(final_eval_budget),
    )


def run_gass_cvar_arl(config: GassConfig, loss: LossModel, schedule: RiskSchedule,
                      effective_size: int, seed, *,
                      final_eval_budget: int = 100_000) -> RunResult:
    """Search whose level follows the gradient-norm schedule, with
    ceil(effective_size / (1 - alpha_k)) simulations per candidate.

    A schedule started at its target is fixed-level GASS-CVaR.  In-run
    estimates at different levels are not comparable, so every iteration's
    best candidate is re-evaluated at the target level with fresh
    simulations and the argmin of those values is reported.
    """
    if operator.index(final_eval_budget) < 1:
        raise ValueError("final_eval_budget must be >= 1")
    seed_seq = as_seed_sequence(seed)
    alpha_star = schedule.alpha_target
    records, terminated = _run_search(
        config, loss, seed_seq, schedule,
        lambda alpha: inner_sample_size(alpha, effective_size),
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
