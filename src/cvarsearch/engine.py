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
  ``GassConfig`` the epsilon and an initial family inside its box;
- every array shape derives from the family's parameters.

N_k = ceil(N * max(k, 1)^exponent) comes from a ``PowerGrowthSchedule``
(exponent 0 keeps it constant) and the step size from a
``PowerLawStepSize``.  Both check their parameters when built, the run
functions check their budgets on entry, and ``inner_sample_size`` checks
the effective size in iteration 0 before its first draw, so every error
about these inputs is raised before the first simulation.

Every iteration still calls functions that check their own inputs:
``sample``, ``inner_sample_size``, ``update_risk_level``,
``sufficient_statistics``, ``sample_quantile_threshold``, ``shape``,
``empirical_cvar`` and, through ``SamplingParams``,
``_project_raw_natural``.  Of these, only the loss's output can make one
fail mid-run: ``empirical_cvar`` refuses a chunk that holds a non-finite
draw (as ``_candidate_cvars`` refuses a ``simulate`` result of the wrong
shape), and ``sample_quantile_threshold`` refuses an estimate that
overflowed to inf, as the alpha = 0 mean of draws near the float maximum
can.  The others get values that checked objects guarantee: N_k >= 2,
alpha_k in [0, target], a finite threshold, and candidates, statistics,
gradient and update that are finite while a candidate's fourth power
is, which the variance matrix and gradient norm of (x, x^2) take;
``ProjectionBox`` refuses a box that lets |x| reach beyond 1e75.

alpha_k always comes from a ``RiskSchedule``, and the per-candidate
budget M_k is a function of alpha_k.  ``run_gass_cvar_arl`` runs both
algorithms: started below the target, the schedule ramps alpha with the
gradient-norm decay and spends only ceil(eff / (1 - alpha_k)) simulations
per candidate along the way; started at the target (a zero gap), it never
moves, which is fixed-level GASS-CVaR.  It re-evaluates every iteration's
best candidate at the target level and reports the argmin of those fresh
values.  ``run_gass_cvar`` is the zero-gap search with a fixed
per-candidate budget and a single re-evaluation, at that same budget, of
the candidate with the best in-run estimate; the large-budget reference
run uses it.  Re-evaluation budget is accounted separately from the
search budget.

A run's trace, ``RunResult.records``, is one NumPy record array with a
row per iteration, built once when the loop ends.

Randomness: every consumer draws from a substream keyed by its role and
position (iteration, chunk of candidates), so results do not depend on
evaluation order or worker count.  The candidates of one evaluation share
streams in chunks of ``_chunk_rows(m)``, which depends on the draws per
candidate m alone: chunk c is NumPy's own
``generator(substream(seq, *key, c))``, and its candidates draw from it
one after another, in index order.  For a ``BenchmarkLoss`` one
``standard_normal`` call fills the chunk instead, row after row, and each
row becomes its candidate's losses in place: the standard normals that
its ``simulate(x, m, rng)`` per candidate would draw, scaled and shifted
by the one formula ``simulate`` applies to every draw, so every value
keeps its bits.  A chunk holds at most 2^16 draws, or one candidate when
a candidate takes more.
Every stream is a SeedSequence-seeded NumPy SFC64 generator: it draws
normals faster than PCG64, and each has its own mixed state with a cycle
of at least 2^64.

Memory: a chunk, the one unit of evaluation work, is simulated into its
thread's buffer (a ``BenchmarkLoss`` forms its losses there; another
loss's m draws per candidate are copied in) and reduced to CVaR estimates
by one call, so a search or re-evaluation holds one chunk of loss draws
per thread, at most 512 KiB or one candidate's draws when they are more,
not the O(N_k * M_k) loss matrix.  The reduction partitions the chunk in place and copies only
each row's tail from its VaR up, so its transients shrink with 1 - alpha:
about a tenth of the chunk at 0.95.

Threads: from ``_THREAD_MIN_DRAWS`` draws per candidate, the threads of
an evaluation claim its chunks one at a time from one shared iterator
until none is left, so a thread that starts late claims fewer; below it,
starting threads costs more than they save.  The thread count is
derived, never set: the CPUs the process may run on, capped by the chunk
count, and lowered in each worker of a process pool so that workers x
threads stays within the CPUs.  A chunk is never split between threads,
so no value depends on the thread count or on which thread took a chunk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .benchmarks import BenchmarkLoss
from .risk import _check_alpha, _check_count, _check_number, empirical_cvar
from .sampling import (
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
    "PowerGrowthSchedule",
    "GassConfig",
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

# draws per candidate from which an evaluation runs on several threads.
# On a 2-vCPU host (1,000 l0 candidates at D = 10 and alpha 0.95, each chunk
# one standard_normal fill, best of 7 calls per round, three runs of two
# sets of 5 rounds), 2 threads claiming chunks beat 1 in 8 of 10 rounds at
# 400 draws (two runs), 10, 6 and 10 of 10 at 600, 10, 9 and 10 at 1,000,
# and 10 of 10 in every run at 1,500 and 2,000.  With desk's 200 candidates
# at D = 2 they beat 1 in 7 of 10 at 600 and 8 of 10 at 1,000.
_THREAD_MIN_DRAWS = 1500
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

    ``rng`` is the generator of the candidate's chunk: the ``_chunk_rows(m)``
    candidates that 2**16 draws hold (one when m is larger) share it in
    index order, and each call draws on from where the previous candidate's
    call stopped.  So a loss must draw from it only during the call and
    must not keep it.  If the number of draws a loss takes depends on x, a
    candidate's value depends on the earlier candidates of its chunk.

    From ``_THREAD_MIN_DRAWS`` draws per candidate, ``simulate`` may run on
    several threads at once, each with its own chunks' generators, so a loss
    must not change shared state without its own lock.  It should draw its
    m simulations in one NumPy call where it can: a NumPy call releases the
    interpreter lock only for its own pass, and several short passes per
    candidate leave the threads of an evaluation waiting on each other for
    the lock.

    A ``BenchmarkLoss`` is not called this way: the engine draws its whole
    chunk's standard normals in one call and passes each candidate's row
    as ``simulate(x, m, rng, normals=row)``, which forms the losses in the
    row in place by the formula its own draws take.
    """

    def simulate(self, x, m: int, rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class PowerLawStepSize:
    """step(k) = a / (k + b)^gamma; valid for gamma in (0.5, 1], finite a, b > 0."""

    a: float
    b: float
    gamma: float

    def __post_init__(self):
        _check_number(self.a, "step-size a", 0, strict=True)
        _check_number(self.b, "step-size b", 0, strict=True)
        _check_number(self.gamma, "step-size gamma", 0.5, strict=True, most=1)

    def __call__(self, k: int) -> float:
        return self.a / (k + self.b) ** self.gamma


@dataclass(frozen=True)
class PowerGrowthSchedule:
    """count(k) = ceil(base * max(k, 1)^exponent); k = 0 maps to base.

    Exponent 0 gives the constant count base, which falls outside the
    asymptotic growth conditions of GASS's convergence result.  base >= 2
    and a finite exponent >= 0 keep every count >= 2, as the sample
    variance needs.
    """

    base: int
    exponent: float

    def __post_init__(self):
        _check_count(self.base, "candidate count base", 2)
        _check_number(self.exponent, "growth exponent", 0)

    def __call__(self, k: int) -> int:
        return math.ceil(self.base * max(k, 1) ** self.exponent)


@dataclass(frozen=True)
class GassConfig:
    """Everything one search run needs besides the loss and risk level.
    ``init_params`` must lie inside ``box``; only updates are clamped."""

    init_params: SamplingParams
    box: ProjectionBox
    shape: ShapeConfig
    step_size: PowerLawStepSize
    n_candidates: PowerGrowthSchedule
    epsilon: float
    max_iterations: int
    grad_norm_stop: float

    def __post_init__(self):
        _check_number(self.epsilon, "epsilon", 0, strict=True)
        object.__setattr__(self, "max_iterations",
                           _check_count(self.max_iterations, "max_iterations"))
        _check_number(self.grad_norm_stop, "grad_norm_stop", 0)
        for v, lo, hi in ((self.init_params.mean, self.box.mean_lo, self.box.mean_hi),
                          (self.init_params.variance, self.box.var_lo, self.box.var_hi)):
            if not np.all((lo <= v) & (v <= hi)):
                raise ValueError(f"init_params {v} must lie inside the box's [{lo}, {hi}]")


def _trace_dtype(dim: int) -> np.dtype:
    """The row type of ``RunResult.records`` for a family of dimension dim."""
    vector = (float, (dim,))
    return np.dtype([
        ("k", np.int64), ("alpha", float), ("grad_norm", float),
        ("best_cvar_estimate", float), ("cumulative_loss_evals", np.int64),
        ("family_mean", *vector), ("family_variance", *vector),
        ("best_candidate", *vector),
    ])


@dataclass(frozen=True)
class RunResult:
    """A finished run: its trace plus the re-evaluated reported solution.

    ``records`` is the trace, a record array with one row per iteration
    ``k``: its risk level ``alpha``, the norm ``grad_norm`` of its gradient
    estimate, the family (``family_mean``, ``family_variance``) its
    candidates came from, their argmin ``best_candidate`` of estimated
    CVaR at ``alpha`` and that estimate ``best_cvar_estimate``, and
    ``cumulative_loss_evals``, the search simulations through ``k``;
    re-evaluation budget is kept out of it.

    ``record_values`` holds the fresh target-level CVaR value of every
    iteration's best candidate (``run_gass_cvar_arl``, which reports their
    argmin); it is None for ``run_gass_cvar``, which re-evaluates only the
    candidate with the best in-run estimate.  ``final_eval_count`` is the
    simulation budget the re-evaluations consumed.
    """

    records: np.recarray
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


def _chunk_rows(m: int) -> int:
    """Candidates in one chunk at m draws each: as many as 2**16 draws hold
    (512 KiB of losses), or one when a candidate takes more.  A chunk shares
    one stream, one buffer and one reduction; at 50,000 draws a stream per
    candidate costs about 3% of the candidate's draws."""
    return max(1, 2**16 // m)


def _candidate_cvars(loss: LossModel, xs: Sequence, alpha: float, m: int,
                     seq: np.random.SeedSequence, *key: int) -> np.ndarray:
    """CVaR estimate of each candidate in xs from m fresh simulations.

    Candidate i is row ``i % C`` of chunk ``i // C``, where C is
    ``_chunk_rows(m)``: chunk c draws from
    ``generator(substream(seq, *key, c))``, its rows from successive
    ``loss.simulate`` calls on that one generator, into its thread's one
    reused buffer, and is reduced by one ``empirical_cvar`` call, so each
    estimate depends on its chunk index and row alone.  A ``BenchmarkLoss``
    chunk instead fills the buffer with one ``standard_normal`` call and
    passes each row to ``simulate(x, m, rng, normals=row)``, which forms the
    losses in it as it forms its own draws: the same normals in the same
    order and the same formula, so the same bits.
    From ``_THREAD_MIN_DRAWS`` draws every thread, the calling one included,
    takes the next unclaimed chunk from one shared range iterator, whose
    ``next`` holds the interpreter lock, until none is left.  A thread that
    fails takes every chunk still unclaimed, so the others stop after
    their current chunk.  The calling thread's error, else the first failed
    pool task's, reaches the caller once every thread has stopped.
    """
    n = len(xs)
    chunk = _chunk_rows(m)
    chunks = -(-n // chunk)
    threads = min(chunks, _THREADS or _cpu_count()) if m >= _THREAD_MIN_DRAWS else 1
    out = np.empty(n)
    todo = iter(range(chunks))
    fused = isinstance(loss, BenchmarkLoss)

    def fill():
        buffer = np.empty((min(chunk, n), m))
        try:
            for c in todo:
                lo, hi = c * chunk, min(c * chunk + chunk, n)
                rng = generator(substream(seq, *key, c))
                block = buffer[:hi - lo]
                if fused:
                    rng.standard_normal(out=block)
                    for row, x in zip(block, xs[lo:hi]):
                        loss.simulate(x, m, rng, normals=row)
                else:
                    for row, x in zip(block, xs[lo:hi]):
                        draws = loss.simulate(x, m, rng)
                        if np.shape(draws) != (m,):
                            raise ValueError(
                                f"loss.simulate returned shape {np.shape(draws)}, expected ({m},)")
                        row[:] = draws
                out[lo:hi] = empirical_cvar(block, alpha, overwrite_input=True)
        finally:
            # a thread that stops on an error leaves no chunk to claim, so
            # the others stop after their current one
            for _ in todo:
                pass

    if threads == 1:
        fill()
        return out
    # created per call, so that no thread outlives it (a process pool forks)
    with ThreadPoolExecutor(threads - 1) as pool:
        rest = [pool.submit(fill) for _ in range(threads - 1)]
        fill()
        for future in rest:
            future.result()
    return out


def evaluate_candidates(loss: LossModel, candidates: Sequence, alpha: float,
                        budget: int, seed) -> np.ndarray:
    """Fresh CVaR estimate per candidate.

    Candidate j draws from chunk ``j // _chunk_rows(budget)``, whose stream
    depends only on (seed, chunk index), after the earlier candidates of
    its chunk; so the values are independent of the order and the threads
    the chunks are evaluated in.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    return _candidate_cvars(loss, candidates, _check_alpha(alpha),
                            _check_count(budget, "budget"), as_seed_sequence(seed))


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
    params = config.init_params
    rows = []
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
        # a copy: a view would keep the whole of xs alive
        rows.append((k, alpha_k, grad_norm, cvars[i_best], cum_evals,
                     params.mean, params.variance, xs[i_best].copy()))
        params = next_params
        schedule = update_risk_level(schedule, grad_norm)
        if grad_norm <= config.grad_norm_stop:
            terminated = GRAD_THRESHOLD
            break
    return np.array(rows, dtype=_trace_dtype(params.dim)).view(np.recarray), terminated


def run_gass_cvar(config: GassConfig, loss: LossModel, alpha_star: float,
                  inner_budget: int, seed) -> RunResult:
    """Fixed-level search with ``inner_budget`` simulations per candidate.

    The zero-gap schedule keeps every iteration at alpha_star.  Reports the
    candidate with the best in-run estimate across all iterations, record
    j, re-evaluated once with ``inner_budget`` fresh simulations from its
    own key (final realm, j); the other records are not re-evaluated, which
    keeps large-budget runs such as the reference optimum at one extra
    candidate evaluation.
    """
    m = _check_count(inner_budget, "inner_budget")
    schedule = RiskSchedule.start(alpha_star, alpha_star)
    seed_seq = as_seed_sequence(seed)
    records, terminated = _run_search(config, loss, seed_seq, schedule, lambda alpha: m)
    j = int(np.argmin(records.best_cvar_estimate))
    best = records.best_candidate[j]
    final_value = evaluate_candidates(
        loss, [best], schedule.alpha_target, m, substream(seed_seq, _FINAL_REALM, j),
    )[0]
    return RunResult(
        records=records,
        final_best_candidate=best,
        final_best_cvar=float(final_value),
        terminated_by=terminated,
        final_eval_count=m,
    )


def run_gass_cvar_arl(config: GassConfig, loss: LossModel, schedule: RiskSchedule,
                      effective_size: int, seed, *,
                      final_eval_budget: int) -> RunResult:
    """Search whose level follows the gradient-norm schedule, with
    ceil(effective_size / (1 - alpha_k)) simulations per candidate.

    A schedule started at its target is fixed-level GASS-CVaR.  In-run
    estimates at different levels are not comparable, so every iteration's
    best candidate is re-evaluated at the target level with fresh
    simulations and the argmin of those values is reported.
    """
    final_eval_budget = _check_count(final_eval_budget, "final_eval_budget")
    seed_seq = as_seed_sequence(seed)
    alpha_star = schedule.alpha_target
    records, terminated = _run_search(
        config, loss, seed_seq, schedule,
        lambda alpha: inner_sample_size(alpha, effective_size),
    )
    values = evaluate_candidates(
        loss, records.best_candidate, alpha_star,
        final_eval_budget, substream(seed_seq, _FINAL_REALM),
    )
    j = int(np.argmin(values))
    return RunResult(
        records=records,
        final_best_candidate=records.best_candidate[j],
        final_best_cvar=float(values[j]),
        terminated_by=terminated,
        record_values=values,
        final_eval_count=final_eval_budget * len(records),
    )
