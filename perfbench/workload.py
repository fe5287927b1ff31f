"""One benchmark workload, run in a fresh interpreter.

Usage: python3 workload.py PLAN MODE SCRATCH

PLAN is the JSON file ``run.py`` writes: the arm configs (each a YAML file
whose ``master_seed`` carries the workload seed) and whether the oracle
quality checks apply.  MODE is ``setup`` (import and load the configs
only), ``timed`` or ``traced``.  SCRATCH is an empty directory for the
reference cache and the CSV outputs.

The run goes through the public harness calls a ``cvarsearch run`` user
makes: ``load_config`` -> ``emit_reference_run`` -> ``run_experiment``
(``workers=1``) -> ``emit_csv``.  The reference is resolved twice in the
same cache directory: the first call is the cache miss, the second the
hit (for l0 both are the analytic oracle).  The last stdout line is one
JSON object with the timings, counts, checks and quality figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings

import numpy as np
import run
import tracing

from cvarsearch import harness
from cvarsearch.schedule import inner_sample_size


def main(argv: list[str]) -> int:
    plan_path, mode, scratch = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    configs = load_configs(plan["configs"])
    ready = time.time()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = tracing.Tracer() if mode == "traced" else None
    report, produced = run_workload(configs, scratch, tracer)
    report["ready"] = ready
    report["checks"] += check_outputs(configs, produced, plan["oracle_checks"])
    if tracer is not None:
        report["layers"] = tracer.metrics(report["wall_s"])
        report["floors"] = hardware_floors()
    print(json.dumps(report))
    return 0


def load_configs(paths):
    with warnings.catch_warnings():
        # the constant-count warning is expected for every shipped config
        warnings.simplefilter("ignore")
        return [harness.load_config(p) for p in paths]


def run_workload(configs, scratch: str, tracer=None) -> tuple[dict, tuple]:
    """The timed region: reference miss and hit, then every arm's run and
    emission.  All arms share the reference fields, so one reference
    serves them all.

    Returns the report (timings, counts, output digest, quality samples,
    the cache check) and what was produced: the reference value and the
    (result, paths) pair of every arm.
    """
    cache_dir = os.path.join(scratch, "cache")
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        ref_miss = harness.emit_reference_run(configs[0], cache_dir=cache_dir)
        ref_hit = harness.emit_reference_run(configs[0], cache_dir=cache_dir)
        arms = []
        for i, config in enumerate(configs):
            result = harness.run_experiment(config, workers=1, reference_value=ref_hit)
            paths = harness.emit_csv(result, os.path.join(scratch, f"arm{i}"))
            arms.append((result, paths))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256(repr((ref_miss, ref_hit)).encode())
    for _, paths in arms:
        for name in sorted(paths):
            with open(paths[name], "rb") as fh:
                digest.update(fh.read())
    report = {
        "wall_s": wall,
        "work": count_work(configs[0], arms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replications": sum(c.replications for c in configs),
        "digest": digest.hexdigest(),
        "quality": quality_samples(arms, ref_hit),
        "checks": [["reference cache hit is bit-identical to the miss",
                    ref_hit.hex() == ref_miss.hex()]],
    }
    return report, (ref_hit, arms)


def count_work(config, arms) -> tuple[int, int]:
    """Simulated draws and candidate evaluations (``simulate`` calls) of
    the run, from the results: search and final re-evaluation per
    replication, plus the reference search on a cache miss (l0 is
    analytic), assuming it ran all its iterations.  The traced run counts
    both at the loss, and the counts must agree."""
    draws = candidates = 0
    if config.benchmark != "l0":
        searched = config.reference_max_iterations * config.reference_n_candidates
        draws += (searched + 1) * config.reference_inner_budget
        candidates += searched + 1
    for result, _ in arms:
        for o in result.outcomes:
            draws += o.search_evals + o.result.final_eval_count
            candidates += sum(n_candidates(result.config, r.k) for r in o.result.records)
            candidates += o.result.final_eval_count // result.config.final_eval_budget
    return draws, candidates


def n_candidates(config, k: int) -> int:
    """Candidates drawn at iteration k: ceil(N * max(k, 1)^exponent)."""
    return math.ceil(config.n_candidates * max(k, 1) ** config.n_growth_exponent)


def quality_samples(arms, reference: float) -> dict:
    """Per-replication inputs of ``run.quality``: reported fresh CVaR over
    the reference, and per arm the search budget until the fresh best is
    within 10% of the oracle.  The budget is censored at the replication's
    whole search budget when the band is never reached, and on benchmarks
    without an oracle (only l0 has one; elsewhere the reference is itself
    a finite-budget search)."""
    budgets = {}
    for result, _ in arms:
        spent = []
        for o in result.outcomes:
            hit = None
            if result.config.benchmark == "l0":
                hit = harness.budget_to_threshold(o, 1.1 * reference)
            spent.append(o.search_evals if hit is None else hit)
        budgets[result.config.algorithm] = spent
    return {
        "finals": [o.result.final_best_cvar / reference
                   for result, _ in arms for o in result.outcomes],
        "budgets": budgets,
    }


def check_outputs(configs, produced, oracle_checks: bool) -> list:
    """Output checks of one run, as [description, passed] pairs; ``produced``
    is the reference value and the (result, paths) pair of every arm."""
    reference, arms = produced
    checks = []
    for config, (result, paths) in zip(configs, arms):
        arm = config.algorithm
        reported = [reference, result.curve_mean_ratio, result.curve_q10_ratio,
                    result.curve_q90_ratio, result.curve_mean_value, result.alpha_mean]
        for o in result.outcomes:
            reported += [o.result.final_best_cvar, o.result.record_values]
        checks.append([f"{arm}: every reported value is finite",
                       all(np.all(np.isfinite(v)) for v in reported)])
        for o in result.outcomes:
            spent = np.cumsum([
                n_candidates(config, r.k) * inner_sample_size(r.alpha, config.effective_size)
                for r in o.result.records
            ])
            logged = [r.cumulative_loss_evals for r in o.result.records]
            checks.append([f"{arm} rep {o.rep}: cumulative_loss_evals match "
                           "sum n_k * inner_sample_size(alpha_k, eff)",
                           spent.tolist() == logged])
        with open(paths["iterations"], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        iterations = sum(len(o.result.records) for o in result.outcomes)
        checks.append([f"{arm}: iterations.csv has one row per iteration",
                       rows == iterations])
        if oracle_checks:
            finals = np.array([o.result.final_best_cvar for o in result.outcomes])
            within = int(np.sum(np.abs(finals - reference) <= 0.1 * reference))
            checks.append([f"{arm}: {within} of {finals.size} replications within "
                           "10% of the oracle, need 80%", within >= 0.8 * finals.size])
    if oracle_checks:
        ratio = run.quality([quality_samples(arms, reference)])["budget_ratio"]
        checks.append([f"fixed/ramped budget ratio >= 1.5 ({ratio:.3f})", ratio >= 1.5])
    return checks


def hardware_floors() -> dict:
    """Same-process hardware floors, each the median of five timings.

    * ``normal_ns_per_draw``: ``standard_normal`` into a preallocated
      1,000,000-element float64 buffer (PCG64);
    * ``partition_ns_per_element``: ``np.partition`` of a 1000 x 5000
      float64 matrix along rows at the alpha = 0.99 VaR index;
    * ``stream_us``: building 1000 ``SeedSequence`` + ``default_rng``
      pairs keyed like the engine's per-candidate streams, per call (two
      calls a stream, as ``streams.us_per_call`` counts them).
    """
    def median_time(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    rng = np.random.default_rng(12345)
    buf = np.empty(1_000_000)
    normal = median_time(lambda: rng.standard_normal(out=buf))
    matrix = rng.standard_normal((1000, 5000))
    partition = median_time(lambda: np.partition(matrix, 4949, axis=-1))
    root = np.random.SeedSequence(12345)

    def build_streams():
        for i in range(1000):
            np.random.default_rng(np.random.SeedSequence(
                entropy=root.entropy, spawn_key=(1, 1, 0, i)))

    streams = median_time(build_streams)
    return {
        "floor.normal_ns_per_draw": 1e9 * normal / buf.size,
        "floor.partition_ns_per_element": 1e9 * partition / matrix.size,
        "floor.stream_us": 1e6 * streams / 2000,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
