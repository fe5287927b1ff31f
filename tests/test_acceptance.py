"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criteria 4-6 share one desk-scale experiment pair (3 to 4 s per arm on a
2-vCPU x86-64 host); the rest are near-instant.  The full-scale ten-dimensional configuration is shipped
as ``configs/paper_full.yaml`` but excluded here: its fifty replications
take about 25 minutes per arm on one CPU, and its budget-saving ratio,
1.64-1.73 on 8 of 50 replications, is documented in the README.
"""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cvarsearch import engine
from cvarsearch.benchmarks import BenchmarkLoss, l0_min_cvar_oracle
from cvarsearch.engine import (
    GRAD_THRESHOLD,
    PowerLawStepSize,
    evaluate_candidates,
    newton_step_vector,
    normalized_weights,
    sample_variance_matrix,
)
from cvarsearch.harness import (
    ExperimentConfig,
    budget_to_threshold,
    emit_csv,
    emit_reference_run,
    load_config,
    run_experiment,
)
from cvarsearch.risk import empirical_cvar, gaussian_cvar_oracle
from cvarsearch.schedule import RiskSchedule, inner_sample_size, update_risk_level
from cvarsearch.shaping import sample_quantile_threshold, shape, ShapeConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def desk_runs():
    """Both algorithms on the shipped desk config, plus the oracle optimum."""
    config = load_config(CONFIGS / "desk_l0.yaml")
    oracle = emit_reference_run(config)
    fixed = run_experiment(config, workers=1, reference_value=oracle)
    ramped = run_experiment(
        dataclasses.replace(config, algorithm="gass_cvar_arl"),
        workers=1,
        reference_value=oracle,
    )
    return config, oracle, fixed, ramped


def test_criterion_1_estimator_correctness():
    levels = [(0.9, 0.03), (0.95, 0.05), (0.99, 0.15)]
    hits = {alpha: 0 for alpha, _ in levels}
    seeds = 100
    for seed in range(seeds):
        draws = np.random.default_rng(seed).standard_normal(100_000)
        assert empirical_cvar(draws, 0.0) == draws.mean()
        ascending = np.sort(draws)
        for alpha, tol in levels:
            est = empirical_cvar(draws, alpha)
            assert est >= ascending[max(1, math.ceil(alpha * draws.size)) - 1]
            if abs(est - gaussian_cvar_oracle(0.0, 1.0, alpha)) <= tol:
                hits[alpha] += 1
    ok = all(count >= 95 for count in hits.values())
    report(1, ok, f"oracle agreement per level (of {seeds} seeds): {hits}")


def test_criterion_2_formula_fixtures():
    checks = []

    def exact(label, got, want):
        checks.append((label, bool(np.all(got == want)), got, want))

    def close(label, got, want, rel):
        checks.append((label, bool(abs(got - want) <= rel * abs(want)), got, want))

    # the VaR is the threshold at rho = 1 - alpha; 1 - 0.2 == 0.8 exactly
    exact("var order statistic", sample_quantile_threshold(np.array([3.0, 1.0, 2.0]), 0.5), 2.0)
    exact("var j-th order statistic", sample_quantile_threshold(np.arange(1.0, 11.0), 0.2), 8.0)
    exact("cvar tail mean", empirical_cvar(np.arange(1.0, 11.0), 0.8), 9.5)
    exact("cvar risk neutral", empirical_cvar(np.arange(1.0, 11.0), 0.0), 5.5)
    exact("cvar constant", empirical_cvar(np.full(7, 2.5), 0.9), 2.5)
    exact("quantile threshold", sample_quantile_threshold(np.arange(1.0, 11.0), 0.1), 9.0)
    exact("shape at threshold", shape([4.2], 4.2, ShapeConfig(s_o=1e5, rho=0.1)), [0.5])
    exact("weight normalization", normalized_weights([1.0, 3.0]), np.array([0.25, 0.75]))
    exact(
        "variance two-point",
        sample_variance_matrix(np.array([[0.0], [2.0]])),
        np.array([[2.0]]),
    )

    rows = [[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0], [5.0, 2.0]]
    cols = list(zip(*[[Fraction(v) for v in row] for row in rows]))
    means = [sum(col, Fraction(0)) / 4 for col in cols]
    brute = np.array(
        [
            [
                float(
                    sum(
                        (cols[i][t] - means[i]) * (cols[j][t] - means[j])
                        for t in range(4)
                    )
                    / 3
                )
                for j in range(2)
            ]
            for i in range(2)
        ]
    )
    exact("variance vs brute force", sample_variance_matrix(np.array(rows)), brute)

    moved = update_risk_level(
        RiskSchedule(alpha_current=0.5, alpha_target=0.99, prev_grad_norm=1.0), 0.5
    )
    exact("risk-update arithmetic", moved.alpha_current, 0.99 - 0.5 * (0.99 - 0.5))
    exact("inner size eff 30 at 0.95", inner_sample_size(0.95, 30), 600)
    exact("inner size eff 50 at 0.99", inner_sample_size(0.99, 50), 5000)
    exact("inner size risk neutral", inner_sample_size(0.0, 30), 30)
    exact(
        "newton scalar step",
        newton_step_vector(np.array([0.0]), np.array([8.0]), np.array([[3.0]]), 0.5, 1.0),
        np.array([1.0]),
    )
    exact("step-size formula", PowerLawStepSize(50.0, 2000.0, 0.6)(0), 50.0 / 2000.0**0.6)

    exact(
        "rastrigin origin offset",
        BenchmarkLoss("rastrigin", 10).deterministic(np.zeros(10)),
        -201.0,
    )
    exact("l0 origin", BenchmarkLoss("l0", 3).deterministic(np.zeros(3)), 0.0)
    exact("powell ones", BenchmarkLoss("powell", 4).deterministic(np.ones(4)), 122.0)
    exact(
        "rosenbrock halves",
        BenchmarkLoss("rosenbrock", 2).deterministic(np.array([0.5, 0.5])),
        6.5,
    )
    exact("pinter origin", BenchmarkLoss("pinter", 3).deterministic(np.zeros(3)), 0.0)
    exact("noise scale", BenchmarkLoss("l0", 1).noise_scale(np.zeros(1)), math.sqrt(101.0))

    # transcendental-valued points: exact at the correctly-rounded-libm level
    close(
        "pinter ones",
        BenchmarkLoss("pinter", 4).deterministic(np.ones(4)),
        102.18677808316033,
        1e-13,
    )
    checks.append(
        (
            "levy noise-free optimum",
            abs(BenchmarkLoss("levy", 5).deterministic(np.ones(5))) < 1e-12,
            None,
            None,
        )
    )
    close("gaussian cvar 0.99", gaussian_cvar_oracle(0.0, 1.0, 0.99),
          2.6652142203458048132, 1e-12)

    class Noiseless:
        def simulate(self, x, m, rng):
            return np.full(m, float(np.sum(np.square(x))))

    cands = [np.array([2.0, 2.0]), np.array([1.0, 1.0])]
    point = cands[int(np.argmin(evaluate_candidates(Noiseless(), cands, 0.9, 4, 0)))]
    checks.append(
        ("noise-free final ordering", bool(np.all(point == np.array([1.0, 1.0]))),
         point, None)
    )

    failures = [label for label, ok, *_ in checks if not ok]
    report(2, not failures,
           f"{len(checks) - len(failures)}/{len(checks)} fixtures exact"
           + (f"; failed: {failures}" if failures else ""))


def test_criterion_3_risk_schedule_convergence():
    sched = RiskSchedule.start(0.0, 0.99)
    alphas = []
    identity_exact = True
    prev_gap = sched.gap
    prev_norm = None
    for k in range(20):
        norm = 2.0**-k
        sched = update_risk_level(sched, norm)
        alphas.append(sched.alpha_current)
        if prev_norm is not None and norm < prev_norm:
            # contraction state must carry the exact norm ratio, and the
            # published level must be exactly target minus that state
            if sched.gap != (norm / prev_norm) * prev_gap:
                identity_exact = False
            if sched.alpha_current != 0.99 - sched.gap:
                identity_exact = False
        prev_gap = sched.gap
        prev_norm = norm
    monotone = all(b >= a for a, b in zip(alphas, alphas[1:]))
    reached = 0.99 - alphas[-1] <= 1e-4
    ok = monotone and reached and identity_exact
    report(
        3,
        ok,
        f"alpha reached {alphas[-1]:.6f} of 0.99 in {len(alphas)} steps; "
        f"monotone={monotone}, ratio identity exact={identity_exact}",
    )


def test_criterion_4_desk_quality(desk_runs):
    config, oracle, fixed, ramped = desk_runs
    counts = {}
    for name, result in (("gass_cvar", fixed), ("gass_cvar_arl", ramped)):
        finals = np.array([o.result.final_best_cvar for o in result.outcomes])
        counts[name] = int(np.sum(np.abs(finals - oracle) <= 0.1 * oracle))
    ok = all(count >= 8 for count in counts.values())
    report(
        4,
        ok,
        f"replications within 10% of oracle {oracle:.6f} "
        f"(need >= 8/{config.replications}): {counts}",
    )


def test_criterion_5_budget_saving(desk_runs):
    config, oracle, fixed, ramped = desk_runs
    threshold = 1.1 * oracle
    ratios = []
    for fo, ro in zip(fixed.outcomes, ramped.outcomes):
        bf = budget_to_threshold(fo, threshold)
        br = budget_to_threshold(ro, threshold)
        assert bf is not None and br is not None, (
            f"replication {fo.rep} never reached the 10% band"
        )
        ratios.append(bf / br)
    median = float(np.median(ratios))
    ok = median >= 1.5
    report(
        5,
        ok,
        f"median fixed/ramped budget ratio {median:.2f} (need >= 1.5); "
        f"full-scale run (1.64-1.73 on 8 of 50 replications) documented in README, "
        f"excluded from CI",
    )


def test_criterion_6_arl_trajectory(desk_runs):
    config, oracle, fixed, ramped = desk_runs
    converged = [
        o for o in ramped.outcomes if o.result.terminated_by == GRAD_THRESHOLD
    ]
    target = config.alpha_star
    shapes_ok = True
    for outcome in converged:
        alphas = [r.alpha for r in outcome.result.records]
        if not all(b >= a for a, b in zip(alphas, alphas[1:])):
            shapes_ok = False
        if alphas[-1] < target - 0.05:
            shapes_ok = False
    ok = bool(converged) and shapes_ok
    report(
        6,
        ok,
        f"{len(converged)}/{len(ramped.outcomes)} runs hit the gradient stop; "
        f"all nondecreasing and ending >= {target - 0.05:.2f}: {shapes_ok}",
    )


def test_criterion_7_determinism_across_workers(tmp_path):
    config = ExperimentConfig(
        benchmark="l0",
        dim=2,
        algorithm="gass_cvar",
        alpha_star=0.8,
        effective_size=4,
        n_candidates=6,
        max_iterations=5,
        replications=3,
        master_seed=11,
        mean_init_lo=-2.0,
        mean_init_hi=2.0,
        var_init=4.0,
        var_box_hi=100.0,
        final_eval_budget=40,
        grad_norm_stop=0.0,
    )
    names = ("iterations.csv", "curve.csv", "alpha.csv", "summary.json")
    blobs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        emit_csv(run_experiment(config, workers=workers), out)
        blobs[workers] = {name: (out / name).read_bytes() for name in names}
    same = [name for name in names if blobs[1][name] == blobs[8][name]]
    ok = len(same) == len(names)
    report(7, ok, f"byte-identical files at workers 1 vs 8: {len(same)}/{len(names)}")


def test_criterion_7_determinism_across_threads(tmp_path, monkeypatch):
    # the desk run's re-evaluations (final_eval_budget draws each) are the
    # evaluations large enough to run on several threads
    config = load_config(CONFIGS / "desk_l0.yaml")
    oracle = emit_reference_run(config)
    names = ("iterations.csv", "curve.csv", "alpha.csv", "summary.json")
    blobs = {}
    for threads in (1, 2):
        monkeypatch.setattr(engine, "_THREADS", threads)
        out = tmp_path / f"t{threads}"
        emit_csv(run_experiment(config, workers=1, reference_value=oracle), out)
        blobs[threads] = {name: (out / name).read_bytes() for name in names}
    same = [name for name in names if blobs[1][name] == blobs[2][name]]
    ok = len(same) == len(names)
    report(7, ok, f"byte-identical desk files at threads 1 vs 2: {len(same)}/{len(names)}")


def test_criterion_8_reference_substitution():
    # absolute published curve values are not tabulated anywhere usable, so
    # the harness substitutes oracle-based quality checks (criteria 4-6) and
    # a self-generated reference optimum; this pins the substitution itself
    config = ExperimentConfig(
        benchmark="l0",
        dim=2,
        algorithm="gass_cvar",
        alpha_star=0.95,
        effective_size=30,
        n_candidates=200,
        max_iterations=10,
        replications=1,
        master_seed=0,
    )
    got = emit_reference_run(config)
    want = l0_min_cvar_oracle(2, 0.95)[1]
    ok = got == want
    report(
        8,
        ok,
        f"ratio-curve baseline routed to the analytic oracle ({got:.6f}); "
        f"published absolute curves substituted by oracle-based criteria 4-6",
    )
