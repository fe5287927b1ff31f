"""Experiment orchestration: config files, replications, CSV outputs.

An experiment is a pure function of (config, master seed): replications
draw their initial means and all simulation noise from per-replication
substreams, so reruns are bit-identical and the worker count used to farm
replications out never changes any number.

Outputs per experiment:

* ``iterations.csv``  one row per (replication, iteration) with the fixed
  header ``rep,k,alpha,grad_norm,best_cvar,cum_evals,mean_0,...``;
* ``curve.csv``       aggregate best-value-so-far ratio curve against
  cumulative search evaluations (mean and 10/90 percent quantiles across
  replications), the ratio being best fresh target-level CVaR divided by
  the reference optimum, or 1 + (best - ref) / |ref| for a negative
  reference, so that 1 is the optimum and above 1 is worse on either sign;
* ``alpha.csv``       mean risk-level trajectory per iteration;
* ``summary.json``    per-replication digests plus totals and the echoed
  config.

The reference optimum is analytic for the quadratic-bowl benchmark and a
cached large-budget search for the others, keyed by a hash of every config
field the reference run depends on plus a cache schema version.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .benchmarks import BENCHMARK_IDS, BenchmarkLoss, l0_min_cvar_oracle
from .engine import (
    GassConfig,
    PowerGrowthSchedule,
    PowerLawStepSize,
    RunResult,
    _cpu_count,
    _set_threads,
    run_gass_cvar,
    run_gass_cvar_arl,
)
from .risk import _check_count, _check_number
from .sampling import ProjectionBox, SamplingParams
from .schedule import RiskSchedule, inner_sample_size
from .shaping import ShapeConfig
from .streams import as_seed_sequence, generator, substream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ReplicationOutcome",
    "ExperimentResult",
    "load_config",
    "run_experiment",
    "run_replication",
    "emit_csv",
    "emit_reference_run",
    "budget_to_threshold",
    "ALGORITHMS",
]

ALGORITHMS = ("gass_cvar", "gass_cvar_arl")

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; see the README for the key schema."""

    benchmark: str
    dim: int
    algorithm: str
    alpha_star: float
    effective_size: int
    n_candidates: int
    max_iterations: int
    replications: int
    master_seed: int
    alpha_init: float = 0.0
    n_growth_exponent: float = 0.0
    s_o: float = 1e5
    rho: float = 0.1
    epsilon: float = 1e-10
    step_a: float = 50.0
    step_b: float = 2000.0
    step_gamma: float = 0.6
    mean_init_lo: float = -30.0
    mean_init_hi: float = 30.0
    var_init: float = 1000.0
    mean_box_lo: float = -50.0
    mean_box_hi: float = 50.0
    var_box_lo: float = 1e-6
    var_box_hi: float = 2000.0
    grad_norm_stop: float = 1e-3
    final_eval_budget: int = 100_000
    reference_n_candidates: int = 5000
    reference_inner_budget: int = 100_000
    reference_max_iterations: int = 100

    def __post_init__(self):
        _validate(self)


def _fail(key: str, detail: str):
    raise ConfigError(f"config key {key!r}: {detail}")


@contextlib.contextmanager
def _keys(*keys):
    """Report a ValueError as a ConfigError naming the config keys, if any,
    the failing object was built from."""
    try:
        yield
    except ValueError as exc:
        named = f"config key {', '.join(map(repr, keys))}: " if keys else ""
        raise ConfigError(f"{named}{exc}") from exc


# field annotation -> accepted types and their name in an error
_KINDS = {"str": (str, "a string"), "int": (int, "an integer"),
          "float": ((int, float), "a number")}


def _validate(c: ExperimentConfig):
    """Check types, then the rules no engine object owns; every other rule is
    checked by building the engine objects a run builds from the config."""
    for f in dataclasses.fields(c):
        value = getattr(c, f.name)
        types, expected = _KINDS[f.type]
        if isinstance(value, bool) or not isinstance(value, types):
            _fail(f.name, f"expected {expected} (got {value!r})")
        if f.type == "float":
            with _keys(f.name):
                object.__setattr__(c, f.name, _check_number(value, f.name))
    try:
        BenchmarkLoss(c.benchmark, c.dim)
    except ValueError as exc:
        _fail("benchmark" if c.benchmark not in BENCHMARK_IDS else "dim", str(exc))
    if c.algorithm not in ALGORITHMS:
        _fail("algorithm", f"expected one of {ALGORITHMS}")
    with _keys("alpha_init", "alpha_star"):
        RiskSchedule.start(c.alpha_init, c.alpha_star)
    if c.benchmark == "l0" and c.alpha_star == 0.0:
        _fail("alpha_star", "the l0 reference optimum at level 0 is 0, and the ratio "
              "curves would divide by a zero reference")
    with _keys("alpha_star", "effective_size"):
        inner_sample_size(c.alpha_star, c.effective_size)
    mean0 = np.full(c.dim, c.mean_init_lo)
    _gass_config(c, mean0)
    _gass_config(c, mean0, "reference_n_candidates", "reference_max_iterations")
    for key, least in (("replications", 1), ("master_seed", 0), ("final_eval_budget", 1),
                       ("reference_inner_budget", 1)):
        with _keys(key):
            _check_count(getattr(c, key), key, least)


def load_config(path) -> ExperimentConfig:
    """Read a YAML mapping of flat keys into an ExperimentConfig.

    A file that cannot be opened or read as UTF-8 text, or is not valid
    YAML, raises ConfigError naming the file.  Unknown keys and missing
    required keys raise ConfigError naming the key; ExperimentConfig itself
    rejects wrong types and constraint violations the same way.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: cannot be read ({exc})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path}: not valid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: expected a mapping of keys to values")
    fields = dataclasses.fields(ExperimentConfig)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            raise ConfigError(f"config key {key!r}: unknown key")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"config key {missing[0]!r}: required key is missing")
    return ExperimentConfig(**raw)


def _gass_config(c: ExperimentConfig, mean0: np.ndarray, n_key: str = "n_candidates",
                 cap_key: str = "max_iterations") -> GassConfig:
    """The engine config of a search whose candidate count and iteration cap
    are the config fields ``n_key`` and ``cap_key``.  Each engine object
    checks its own inputs; its error names the keys it was built from."""
    with _keys("var_init"):
        init = SamplingParams(mean=mean0, variance=np.full(c.dim, c.var_init))
    with _keys("mean_box_lo", "mean_box_hi", "var_box_lo", "var_box_hi"):
        box = ProjectionBox(c.mean_box_lo, c.mean_box_hi, c.var_box_lo, c.var_box_hi)
    if not (c.mean_box_lo <= c.mean_init_lo <= c.mean_init_hi <= c.mean_box_hi):
        _fail("mean_init_lo", "initial-mean range must be ordered and inside the mean box")
    if not (c.var_box_lo <= c.var_init <= c.var_box_hi):
        _fail("var_init", "must lie inside the variance box")
    with _keys("s_o", "rho"):
        shape = ShapeConfig(s_o=c.s_o, rho=c.rho)
    with _keys("step_a", "step_b", "step_gamma"):
        step_size = PowerLawStepSize(c.step_a, c.step_b, c.step_gamma)
    with _keys(n_key, "n_growth_exponent"):
        n_candidates = PowerGrowthSchedule(getattr(c, n_key), c.n_growth_exponent)
    with _keys("epsilon", cap_key, "grad_norm_stop"):
        return GassConfig(
            init_params=init, box=box, shape=shape, step_size=step_size,
            n_candidates=n_candidates, epsilon=c.epsilon,
            max_iterations=getattr(c, cap_key), grad_norm_stop=c.grad_norm_stop,
        )


def _search_inputs(c: ExperimentConfig, seq: np.random.SeedSequence,
                   n_key: str = "n_candidates", cap_key: str = "max_iterations",
                   ) -> tuple[GassConfig, BenchmarkLoss, np.random.SeedSequence]:
    """The engine config, the loss and the search seed of a search under
    ``seq``: the initial mean is uniform on ``substream(seq, 0)``, the search
    draws from ``substream(seq, 1)``."""
    mean0 = generator(substream(seq, 0)).uniform(c.mean_init_lo, c.mean_init_hi, c.dim)
    return (_gass_config(c, mean0, n_key, cap_key), BenchmarkLoss(c.benchmark, c.dim),
            substream(seq, 1))


@dataclass(frozen=True)
class ReplicationOutcome:
    """One replication's run result under its replication index."""

    rep: int
    result: RunResult

    @property
    def search_evals(self) -> int:
        return int(self.result.records.cumulative_loss_evals[-1])

    @property
    def best_values(self) -> np.ndarray:
        """Running best of the fresh target-level values, per iteration."""
        return np.minimum.accumulate(self.result.record_values)


def run_replication(config: ExperimentConfig, rep: int) -> ReplicationOutcome:
    """Run one replication; depends only on (config, rep)."""
    rep = _check_count(rep, "rep", 0)
    gcfg, loss, seed = _search_inputs(
        config, substream(as_seed_sequence(config.master_seed), rep))
    # fixed-level GASS-CVaR is the ramp started at its target
    alpha_init = config.alpha_star if config.algorithm == "gass_cvar" else config.alpha_init
    result = run_gass_cvar_arl(
        gcfg, loss, RiskSchedule.start(alpha_init, config.alpha_star),
        config.effective_size, seed, final_eval_budget=config.final_eval_budget,
    )
    return ReplicationOutcome(rep=rep, result=result)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    reference_value: float
    outcomes: list[ReplicationOutcome]
    # aggregate ratio curve columns, aligned arrays
    curve_evals: np.ndarray
    curve_mean_ratio: np.ndarray
    curve_q10_ratio: np.ndarray
    curve_q90_ratio: np.ndarray
    curve_mean_value: np.ndarray
    # mean risk level per iteration index
    alpha_mean: np.ndarray


def _step_values(evals: np.ndarray, bests: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # right-continuous step lookup; grid points before the first eval are
    # excluded by grid construction
    idx = np.searchsorted(evals, grid, side="right") - 1
    return bests[np.clip(idx, 0, bests.size - 1)]


def _aggregate(config: ExperimentConfig, reference_value: float,
               outcomes: list[ReplicationOutcome]) -> ExperimentResult:
    all_evals = [o.result.records.cumulative_loss_evals for o in outcomes]
    all_bests = [o.best_values for o in outcomes]
    start = max(e[0] for e in all_evals)
    grid = np.unique(np.concatenate(all_evals))
    grid = grid[grid >= start]
    table = np.vstack([_step_values(e, b, grid) for e, b in zip(all_evals, all_bests)])
    # best / ref, or 1 + (best - ref) / |ref| below zero: above 1 means worse
    ratios = table / reference_value
    if reference_value < 0:
        ratios = 2.0 - ratios
    # a replication that stopped early holds its last level
    k_max = max(len(o.result.records) for o in outcomes)
    alpha_rows = np.vstack([
        o.result.records.alpha[np.minimum(np.arange(k_max), len(o.result.records) - 1)]
        for o in outcomes
    ])
    return ExperimentResult(
        config=config,
        reference_value=reference_value,
        outcomes=outcomes,
        curve_evals=grid,
        curve_mean_ratio=ratios.mean(axis=0),
        curve_q10_ratio=np.quantile(ratios, 0.1, axis=0),
        curve_q90_ratio=np.quantile(ratios, 0.9, axis=0),
        curve_mean_value=table.mean(axis=0),
        alpha_mean=alpha_rows.mean(axis=0),
    )


def run_experiment(config: ExperimentConfig, workers: int | None = None,
                   reference_value: float | None = None) -> ExperimentResult:
    """All replications plus aggregation.

    The replications run on ``workers`` processes, at most one each; None,
    the default, is one per CPU the process may run on (its affinity mask),
    as ``cvarsearch run`` does.  Each process evaluates on ``max(1, cpus //
    processes)`` threads.  Results are identical to the serial run because
    every replication derives its own substreams.  The reference optimum is
    computed, without a cache, unless passed in; the ratio curves divide by
    it, so it must be finite and nonzero.
    """
    cpus = _cpu_count()
    workers = cpus if workers is None else _check_count(workers, "workers")
    if reference_value is None:
        reference_value = emit_reference_run(config)
    reference_value = _check_number(reference_value, "reference_value")
    if reference_value == 0.0:
        raise ValueError(f"reference_value must be nonzero, got {reference_value}")
    reps = range(config.replications)
    # a fork-started pool launches all its workers at the first submit
    workers = min(workers, config.replications)
    if workers == 1:
        outcomes = [run_replication(config, rep) for rep in reps]
    else:
        # imported here, so that a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_threads,
                                 initargs=(max(1, cpus // workers),)) as pool:
            futures = [pool.submit(run_replication, config, rep) for rep in reps]
            outcomes = [f.result() for f in futures]
    return _aggregate(config, reference_value, outcomes)


def budget_to_threshold(outcome: ReplicationOutcome, threshold: float) -> int | None:
    """Search evaluations spent when the fresh best value first reached
    threshold; None if it never did."""
    bests = outcome.best_values
    hit = np.nonzero(bests <= threshold)[0]
    if hit.size == 0:
        return None
    return int(outcome.result.records.cumulative_loss_evals[hit[0]])


# --- reference optimum ---------------------------------------------------

# fields the reference search's seed is hashed from; frozen, because a new
# seed re-draws every reference, and a ratio against one reference draw
# swings with it: perfbench/reference_large.yaml's reference read from
# 218.7 to 497.6 at SeedSequence(1) to (8), against 303.8 at this seed
_REFERENCE_SEED_FIELDS = (
    "benchmark", "dim", "alpha_star", "s_o", "rho", "epsilon",
    "step_a", "step_b", "step_gamma", "mean_init_lo", "mean_init_hi",
    "var_init", "mean_box_lo", "mean_box_hi", "var_box_lo", "var_box_hi",
    "reference_n_candidates", "reference_inner_budget", "reference_max_iterations",
)
# every field that reaches the reference run; the cache key hashes these
_REFERENCE_FIELDS = _REFERENCE_SEED_FIELDS + ("grad_norm_stop", "n_growth_exponent")
# bump when the reference run changes for an unchanged config; 4 sums each
# CVaR estimate's tail in sorted order, which can move a reference's last
# bits, 5 draws candidates from one stream per chunk, which moves all,
# 6 draws from SFC64 streams with L(x) and s(x) in Python floats, and 7
# sizes chunks to 2**16 draws, which moves references at every m but 1,024
_REFERENCE_SCHEMA = 7


def _fields_hash(config: ExperimentConfig, fields, **extra) -> str:
    payload = {name: getattr(config, name) for name in fields}
    blob = json.dumps({**payload, **extra}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_cache(path) -> dict:
    """Cached reference values by key.  A missing file is an empty cache; an
    unreadable or malformed one is reported and treated as empty, so every
    lookup misses and the next write replaces it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cache = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        logger.warning("ignoring unreadable reference cache %s: %s", path, exc)
        return {}
    if not isinstance(cache, dict):
        logger.warning("ignoring reference cache %s: not a JSON object", path)
        return {}
    return cache


def _write_file(path, write):
    """Replace the file at path by what ``write(fh)`` writes to an open text
    file, atomically: readers see the old or the new file, never a partial
    one, even if this process dies mid-write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def emit_reference_run(config: ExperimentConfig, cache_dir=None) -> float:
    """Reference optimum for the ratio curves.

    The quadratic bowl has an analytic optimum.  Other benchmarks get one
    large-budget fixed-level run seeded from a hash of the config; the value
    is cached in ``reference_cache.json`` under a hash of every field the
    run depends on when a cache directory is given.  That directory is
    created before the search, so that an unusable one raises OSError
    before the work, not after it.
    """
    if config.benchmark == "l0":
        return float(l0_min_cvar_oracle(config.dim, config.alpha_star)[1])
    key = _fields_hash(config, _REFERENCE_FIELDS, schema=_REFERENCE_SCHEMA)
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, "reference_cache.json")
        cached = _read_cache(cache_path).get(key)
        if isinstance(cached, float) and math.isfinite(cached):
            return cached
        if cached is not None:
            # json reads NaN and Infinity as floats; recompute and replace
            logger.warning("ignoring cached reference value %r in %s: not a finite float",
                           cached, cache_path)
    seed_key = _fields_hash(config, _REFERENCE_SEED_FIELDS)
    gcfg, loss, seed = _search_inputs(
        config, substream(np.random.SeedSequence(int(seed_key[:16], 16)), 0),
        "reference_n_candidates", "reference_max_iterations")
    result = run_gass_cvar(gcfg, loss, config.alpha_star, config.reference_inner_budget, seed)
    value = float(result.final_best_cvar)
    if cache_path is not None:
        cache = _read_cache(cache_path)
        cache[key] = value
        _write_file(cache_path, lambda fh: json.dump(cache, fh, sort_keys=True, indent=1))
    return value


# --- CSV emission --------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def emit_csv(result: ExperimentResult, out_dir) -> dict[str, str]:
    """Write iterations.csv, curve.csv, alpha.csv and summary.json, each
    replaced atomically.

    All content is a pure function of the result, so rewriting the same
    result reproduces the files byte for byte.
    """
    iterations = ["rep,k,alpha,grad_norm,best_cvar,cum_evals," + ",".join(
        f"mean_{i}" for i in range(result.config.dim)
    )]
    for outcome in result.outcomes:
        for rec in outcome.result.records:
            mean_cols = ",".join(_fmt(v) for v in rec.family_mean)
            iterations.append(
                f"{outcome.rep},{rec.k},{_fmt(rec.alpha)},{_fmt(rec.grad_norm)},"
                f"{_fmt(rec.best_cvar_estimate)},{rec.cumulative_loss_evals},{mean_cols}"
            )

    curve = ["cum_evals,mean_ratio,q10_ratio,q90_ratio,mean_best_cvar"]
    for i in range(result.curve_evals.size):
        curve.append(
            f"{int(result.curve_evals[i])},{_fmt(result.curve_mean_ratio[i])},"
            f"{_fmt(result.curve_q10_ratio[i])},{_fmt(result.curve_q90_ratio[i])},"
            f"{_fmt(result.curve_mean_value[i])}"
        )

    alpha = ["k,mean_alpha"]
    for k in range(result.alpha_mean.size):
        alpha.append(f"{k},{_fmt(result.alpha_mean[k])}")

    digests = []
    for outcome in result.outcomes:
        r = outcome.result
        digests.append({
            "rep": outcome.rep,
            "iterations": len(r.records),
            "terminated_by": r.terminated_by,
            "final_best_cvar": r.final_best_cvar,
            "final_best_candidate": [float(v) for v in r.final_best_candidate],
            "search_evals": outcome.search_evals,
            "final_eval_count": r.final_eval_count,
        })
    summary = {
        "config": dataclasses.asdict(result.config),
        "reference_value": result.reference_value,
        "replications": digests,
        "total_search_evals": sum(d["search_evals"] for d in digests),
        "total_final_evals": sum(d["final_eval_count"] for d in digests),
    }

    texts = {
        "iterations.csv": "\n".join(iterations),
        "curve.csv": "\n".join(curve),
        "alpha.csv": "\n".join(alpha),
        "summary.json": json.dumps(summary, sort_keys=True, indent=1),
    }
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        _write_file(path, lambda fh: fh.write(text + "\n"))
        paths[name.split(".")[0]] = path
    return paths
