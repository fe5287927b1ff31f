import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarsearch import engine
from cvarsearch.benchmarks import BenchmarkLoss
from cvarsearch.engine import (
    GRAD_THRESHOLD,
    MAX_ITERATIONS,
    GassConfig,
    PowerGrowthSchedule,
    PowerLawStepSize,
    evaluate_candidates,
    newton_step_vector,
    normalized_weights,
    run_gass_cvar,
    run_gass_cvar_arl,
    sample_variance_matrix,
)
from cvarsearch.risk import empirical_cvar
from cvarsearch.sampling import (
    ProjectionBox,
    SamplingParams,
    _project_raw_natural,
    expected_sufficient_statistics,
    sample,
    sufficient_statistics,
    to_natural,
)
from cvarsearch.schedule import RiskSchedule, inner_sample_size
from cvarsearch.shaping import ShapeConfig, sample_quantile_threshold, shape
from cvarsearch.streams import as_seed_sequence, generator, substream


def symmetric_box(dim, mean_bound, var_hi, var_lo=1e-6):
    """Box [-mean_bound, mean_bound] x [var_lo, var_hi] in every coordinate."""
    return ProjectionBox(
        mean_lo=np.full(dim, -float(mean_bound)),
        mean_hi=np.full(dim, float(mean_bound)),
        var_lo=np.full(dim, float(var_lo)),
        var_hi=np.full(dim, float(var_hi)),
    )


class NoiselessLoss:
    """Deterministic quadratic bowl pretending to be a simulator."""

    def simulate(self, x, m, rng):
        return np.full(m, float(np.sum(np.square(x))))


def small_config(dim=2, **overrides):
    defaults = dict(
        init_params=SamplingParams(
            mean=np.full(dim, 3.0), variance=np.full(dim, 4.0)
        ),
        box=symmetric_box(dim, mean_bound=10.0, var_hi=10.0, var_lo=1e-4),
        shape=ShapeConfig(s_o=1e5, rho=0.1),
        step_size=PowerLawStepSize(2.0, 10.0, 0.6),
        n_candidates=PowerGrowthSchedule(50, 0.0),
        max_iterations=20,
        grad_norm_stop=0.0,
    )
    defaults.update(overrides)
    return GassConfig(**defaults)


class TestSchedules:
    def test_power_law_values(self):
        step = PowerLawStepSize(50.0, 2000.0, 0.6)
        assert step(0) == 50.0 / 2000.0**0.6
        assert step(100) == 50.0 / 2100.0**0.6

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            PowerLawStepSize(0.0, 1.0, 0.6)
        with pytest.raises(ValueError):
            PowerLawStepSize(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            PowerLawStepSize(1.0, 1.0, 1.01)
        for a, b in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                PowerLawStepSize(a, b, 0.6)

    def test_constant(self):
        # exponent 0 is the constant count
        constant = PowerGrowthSchedule(7, 0.0)
        assert [constant(k) for k in (0, 1, 2, 123)] == [7, 7, 7, 7]
        assert isinstance(constant(123), int)

    def test_power_growth(self):
        growth = PowerGrowthSchedule(100, 0.5)
        assert growth(0) == 100
        assert growth(1) == 100
        assert growth(2) == math.ceil(100 * math.sqrt(2))
        assert growth(4) == 200

    def test_power_growth_validation(self):
        for base, exponent in [(1, 0.0), (0, 0.5), (2, -0.1), (2, math.inf), (2, math.nan)]:
            with pytest.raises(ValueError):
                PowerGrowthSchedule(base, exponent)


class TestWeights:
    def test_fixture(self):
        np.testing.assert_array_equal(
            normalized_weights([1.0, 3.0]), np.array([0.25, 0.75])
        )

    @given(
        vals=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30).filter(
            lambda v: sum(v) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, vals):
        w = normalized_weights(vals)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_zero_sum_falls_back_to_uniform(self, caplog):
        with caplog.at_level("WARNING", logger="cvarsearch.engine"):
            w = normalized_weights(np.zeros(4))
        np.testing.assert_array_equal(w, np.full(4, 0.25))
        assert any("uniform" in r.message for r in caplog.records)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalized_weights([-1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_weights([])


class TestMoments:
    def test_weighted_mean_fixture(self):
        # the loop's weighted statistic mean: normalized shape values
        # applied to the candidates' (x, x^2) rows
        w = normalized_weights(np.array([1.0, 3.0]))
        s = sufficient_statistics(np.array([[1.0], [3.0]]))
        np.testing.assert_array_equal(w @ s, np.array([2.5, 7.0]))

    def test_variance_two_point_fixture(self):
        np.testing.assert_array_equal(
            sample_variance_matrix(np.array([[0.0], [2.0]])), np.array([[2.0]])
        )

    @staticmethod
    def brute_force_cov(rows):
        # exact rational arithmetic, the long way around
        n, p = len(rows), len(rows[0])
        cols = [[Fraction(row[j]) for row in rows] for j in range(p)]
        means = [sum(col, Fraction(0)) / n for col in cols]
        out = [
            [
                sum(
                    (cols[i][t] - means[i]) * (cols[j][t] - means[j])
                    for t in range(n)
                )
                / (n - 1)
                for j in range(p)
            ]
            for i in range(p)
        ]
        return np.array([[float(v) for v in row] for row in out])

    def test_variance_exact_on_dyadic_mean(self):
        # n = 4 keeps the column means dyadic, so both routes are exact
        rows = [[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0], [5.0, 2.0]]
        got = sample_variance_matrix(np.array(rows))
        np.testing.assert_array_equal(got, self.brute_force_cov(rows))

    def test_variance_matches_brute_force_random(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, 5))
            rows = rng.normal(size=(n, p)).tolist()
            got = sample_variance_matrix(np.array(rows))
            np.testing.assert_allclose(got, self.brute_force_cov(rows), rtol=1e-12,
                                       atol=1e-14)

    def test_variance_symmetry(self):
        arr = np.random.default_rng(2).normal(size=(40, 4))
        v = sample_variance_matrix(arr)
        np.testing.assert_array_equal(v, v.T)

    def test_variance_large_sample_analytic(self):
        # statistics of N(0,1): cov((x, x^2)) = [[1, 0], [0, 2]]
        xs = np.random.default_rng(6).standard_normal((400_000, 1))
        v = sample_variance_matrix(sufficient_statistics(xs))
        np.testing.assert_allclose(v, np.array([[1.0, 0.0], [0.0, 2.0]]), atol=0.02)

    def test_variance_needs_two_rows(self):
        with pytest.raises(ValueError):
            sample_variance_matrix(np.array([[1.0, 2.0]]))

    def test_gradient_fixture(self, monkeypatch):
        # the loop's gradient is the weighted statistic mean minus the
        # family's analytic mean, recomputed here from the loop's own
        # candidates and estimates
        estimates = record_estimates(monkeypatch)
        loss = RecordingLoss(2)
        config = small_config(max_iterations=1)
        out = run_gass_cvar(config, loss, 0.9, 20, 5, final_eval_budget=10)
        n = config.n_candidates(0)
        scores = -np.hstack(estimates)[:n]
        weights = normalized_weights(shape(
            scores, sample_quantile_threshold(scores, config.shape.rho), config.shape))
        grad = (weights @ sufficient_statistics(np.array(loss.points[:n]))
                - expected_sufficient_statistics(config.init_params))
        assert out.records[0].grad_norm == float(np.linalg.norm(grad))

    def test_gradient_mean_zero_under_uniform_weights(self):
        # with flat weights the estimate averages to zero at any fixed family
        params = SamplingParams(mean=np.array([1.0, -2.0]), variance=np.array([4.0, 0.5]))
        analytic = expected_sufficient_statistics(params)
        rng = np.random.default_rng(23)
        n, reps = 64, 200
        grads = np.empty((reps, 4))
        for r in range(reps):
            stats = sufficient_statistics(sample(params, n, rng))
            w = normalized_weights(np.ones(n))
            grads[r] = w @ stats - analytic
        se = grads.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(grads.mean(axis=0)) <= 4 * se)


class TestNewtonStep:
    def test_scalar_fixture(self):
        got = newton_step_vector(
            np.array([0.0]), np.array([8.0]), np.array([[3.0]]), 0.5, 1.0
        )
        np.testing.assert_array_equal(got, np.array([1.0]))

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = int(rng.integers(1, 6))
            m = rng.normal(size=(p, p))
            v = m @ m.T
            g = rng.normal(size=p)
            theta = rng.normal(size=p)
            got = newton_step_vector(theta, g, v, 0.7, 1e-8)
            want = theta + 0.7 * np.linalg.solve(v + 1e-8 * np.eye(p), g)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_indefinite_fallback_stays_finite(self):
        # regularization cancels the negative eigenvalue to within round-off
        eps = 1e-10
        v = np.array([[-2.0 * eps, 0.0], [0.0, 1.0]])
        got = newton_step_vector(np.zeros(2), np.array([1.0, 1.0]), v, 1.0, eps)
        assert np.all(np.isfinite(got))

    def test_step_size_validation(self):
        with pytest.raises(ValueError):
            newton_step_vector(np.zeros(1), np.zeros(1), np.eye(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            newton_step_vector(np.zeros(1), np.zeros(1), np.eye(1), 1.0, 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            newton_step_vector(np.zeros(2), np.zeros(3), np.eye(2), 1.0, 1.0)


class TestNewtonUpdate:
    BOX = symmetric_box(1, mean_bound=5.0, var_hi=8.0, var_lo=0.1)

    def update(self, grad):
        theta = to_natural(SamplingParams(mean=np.zeros(1), variance=np.ones(1)))
        raw = newton_step_vector(theta, grad, np.eye(2), 1.0, 1e-9)
        return _project_raw_natural(raw, self.BOX)

    def test_variance_floor_applied(self):
        out = self.update(np.array([0.0, -10.0]))
        assert out.variance[0] == pytest.approx(0.1, rel=1e-12)

    def test_curvature_escape_maps_to_variance_ceiling(self):
        # a step flipping the curvature coordinate non-negative leaves the
        # family's domain; the projection lands on the largest variance
        out = self.update(np.array([0.0, 10.0]))
        assert out.variance[0] == pytest.approx(8.0, rel=1e-12)


class TestEvaluateCandidates:
    LOSS = BenchmarkLoss("l0", 2)

    def test_repeatable(self):
        cands = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        a = evaluate_candidates(self.LOSS, cands, 0.9, 500, 42)
        b = evaluate_candidates(self.LOSS, cands, 0.9, 500, 42)
        np.testing.assert_array_equal(a, b)

    def test_streams_keyed_by_position(self):
        cands = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        both = evaluate_candidates(self.LOSS, cands, 0.9, 500, 42)
        first_alone = evaluate_candidates(self.LOSS, cands[:1], 0.9, 500, 42)
        assert both[0] == first_alone[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_candidates(self.LOSS, [], 0.9, 10, 0)
        with pytest.raises(ValueError):
            evaluate_candidates(self.LOSS, [np.zeros(2)], 0.9, 0, 0)


def _block_rows(m):
    return max(1, engine._BLOCK_BYTES // (8 * m))


# (n, m): several blocks with a short last one, one-row blocks, one candidate
BLOCK_CASES = [
    (2 * _block_rows(5000) + 3, 5000),
    (3, engine._BLOCK_BYTES // 8 + 1),
    (1, 5000),
]


def _one_at_a_time(loss, xs, alpha, m, seq, *key):
    """Per-candidate reference: a 1-d estimate from each candidate's stream."""
    return np.array([
        empirical_cvar(loss.simulate(x, m, generator(substream(seq, *key, j))), alpha)
        for j, x in enumerate(xs)
    ])


def record_estimates(monkeypatch) -> list:
    """Collect every CVaR estimate the engine computes, in call order."""
    estimates = []

    def recording_cvar(losses, level):
        out = empirical_cvar(losses, level)
        estimates.append(out)
        return out

    monkeypatch.setattr(engine, "empirical_cvar", recording_cvar)
    return estimates


class RecordingLoss:
    """Benchmark loss that remembers every point it simulated."""

    def __init__(self, dim):
        self.inner = BenchmarkLoss("l0", dim)
        self.points = []

    def simulate(self, x, m, rng):
        self.points.append(np.array(x))
        return self.inner.simulate(x, m, rng)


class TestBlockedEvaluation:
    LOSS = BenchmarkLoss("l0", 2)

    @pytest.mark.parametrize("n,m", BLOCK_CASES)
    @pytest.mark.parametrize("alpha", [0.0, 0.95])
    def test_evaluate_candidates_matches_one_at_a_time(self, n, m, alpha):
        xs = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, 2))
        got = evaluate_candidates(self.LOSS, xs, alpha, m, 11)
        want = _one_at_a_time(self.LOSS, xs, alpha, m, as_seed_sequence(11))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,m", [c for c in BLOCK_CASES if c[0] >= 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.95])
    def test_search_matches_one_at_a_time(self, n, m, alpha, monkeypatch):
        estimates = record_estimates(monkeypatch)
        loss = RecordingLoss(2)
        config = small_config(n_candidates=PowerGrowthSchedule(n, 0.0), max_iterations=1)
        run_gass_cvar(config, loss, alpha, m, 19, final_eval_budget=10)
        searched = np.hstack(estimates)[:n]
        want = _one_at_a_time(loss.inner, loss.points[:n], alpha, m,
                              as_seed_sequence(19), engine._LOSS_REALM, 0)
        assert np.array_equal(searched, want)

    def test_search_memory_is_bounded_by_the_block(self):
        # the 400 x 5000 loss matrix alone would take 16 MB
        n, m = 400, 5000
        config = small_config(n_candidates=PowerGrowthSchedule(n, 0.0), max_iterations=2)
        tracemalloc.start()
        try:
            run_gass_cvar(config, self.LOSS, 0.99, m, 3,
                          final_eval_budget=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


class TestFixedLevelRun:
    LOSS = BenchmarkLoss("l0", 2)

    def test_deterministic_given_seed(self):
        config = small_config(max_iterations=5)
        a = run_gass_cvar(config, self.LOSS, 0.9, 20, 7,
                          final_eval_budget=200)
        b = run_gass_cvar(config, self.LOSS, 0.9, 20, 7,
                          final_eval_budget=200)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.k == rb.k
            assert ra.grad_norm == rb.grad_norm
            assert ra.best_cvar_estimate == rb.best_cvar_estimate
            np.testing.assert_array_equal(ra.best_candidate, rb.best_candidate)
        assert a.final_best_cvar == b.final_best_cvar

    def test_seed_changes_draws(self):
        config = small_config(max_iterations=3)
        a = run_gass_cvar(config, self.LOSS, 0.9, 20, 7,
                          final_eval_budget=200)
        b = run_gass_cvar(config, self.LOSS, 0.9, 20, 8,
                          final_eval_budget=200)
        assert a.records[0].best_cvar_estimate != b.records[0].best_cvar_estimate

    def test_budget_accounting(self):
        config = small_config(max_iterations=4, n_candidates=PowerGrowthSchedule(5, 0.0))
        out = run_gass_cvar(config, self.LOSS, 0.9, 3, 0,
                            final_eval_budget=50)
        assert [r.cumulative_loss_evals for r in out.records] == [15, 30, 45, 60]
        assert out.terminated_by == MAX_ITERATIONS
        assert out.final_eval_count == 50
        assert out.record_values is None

    def test_record_evaluation_budget(self):
        # the fixed-level arm is the zero-gap ramp: every record is
        # re-evaluated and the argmin of the fresh values is reported
        config = small_config(max_iterations=4, n_candidates=PowerGrowthSchedule(5, 0.0))
        out = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.9, 0.9), 2, 0,
                                final_eval_budget=50)
        assert out.record_values.shape == (4,)
        assert out.final_eval_count == 200
        j = int(np.argmin(out.record_values))
        assert out.final_best_cvar == out.record_values[j]
        np.testing.assert_array_equal(
            out.final_best_candidate, out.records[j].best_candidate
        )

    def test_final_value_identical_either_way(self):
        # the single re-evaluation draws from the stream the record would
        # get if every record were re-evaluated
        config = small_config(max_iterations=4)
        lean = run_gass_cvar(config, self.LOSS, 0.9, 10, 3,
                             final_eval_budget=400)
        full = evaluate_candidates(
            self.LOSS, [r.best_candidate for r in lean.records], 0.9, 400,
            substream(as_seed_sequence(3), engine._FINAL_REALM),
        )
        j = int(np.argmin([r.best_cvar_estimate for r in lean.records]))
        assert lean.final_best_cvar == full[j]

    def test_grad_threshold_stop(self):
        config = small_config(max_iterations=50, grad_norm_stop=1e9)
        out = run_gass_cvar(config, self.LOSS, 0.9, 5, 0,
                            final_eval_budget=20)
        assert len(out.records) == 1
        assert out.terminated_by == GRAD_THRESHOLD

    def test_first_snapshot_is_initial_family(self):
        config = small_config(max_iterations=1)
        out = run_gass_cvar(config, self.LOSS, 0.9, 5, 0,
                            final_eval_budget=20)
        snap = out.records[0].params_snapshot
        np.testing.assert_array_equal(snap.mean, config.init_params.mean)
        np.testing.assert_array_equal(snap.variance, config.init_params.variance)

    def test_alpha_zero_runs(self):
        config = small_config(max_iterations=3)
        out = run_gass_cvar(config, self.LOSS, 0.0, 10, 5,
                            final_eval_budget=100)
        assert all(r.alpha == 0.0 for r in out.records)

    def test_alpha_star_domain(self):
        config = small_config(max_iterations=1)
        with pytest.raises(ValueError):
            run_gass_cvar(config, self.LOSS, 1.0, 5, 0)

    def test_candidate_count_floor(self):
        # the sample variance needs two candidates; a base of 1 is refused
        # when the schedule is built, before any run
        with pytest.raises(ValueError):
            PowerGrowthSchedule(1, 0.0)

    def test_converges_on_noiseless_quadratic(self):
        config = small_config(max_iterations=150)
        out = run_gass_cvar(config, NoiselessLoss(), 0.9, 2, 11,
                            final_eval_budget=2)
        assert out.final_best_cvar <= 0.1


class TestEntryChecks:
    """Bad run inputs are rejected before the first simulation."""

    CASES = {
        "arl_final_eval_budget": lambda loss: run_gass_cvar_arl(
            small_config(max_iterations=5, n_candidates=PowerGrowthSchedule(20, 0.0)),
            loss, RiskSchedule.start(0.0, 0.9), 5, 0, final_eval_budget=0),
        "inner_budget": lambda loss: run_gass_cvar(
            small_config(), loss, 0.9, 0, 0),
        "step_size_a": lambda loss: run_gass_cvar(
            small_config(step_size=PowerLawStepSize(math.inf, 1.0, 0.6)), loss, 0.9, 5, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_before_any_simulation(self, case):
        loss = RecordingLoss(2)
        with pytest.raises(ValueError):
            self.CASES[case](loss)
        assert loss.points == []


class TestRampedRun:
    LOSS = BenchmarkLoss("l0", 2)

    def test_alpha_trajectory_monotone_bounded(self):
        config = small_config(max_iterations=30)
        out = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.0, 0.9),
                                10, 3, final_eval_budget=200)
        alphas = [r.alpha for r in out.records]
        assert alphas[0] == 0.0
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        assert all(0.0 <= a <= 0.9 for a in alphas)

    def test_budget_follows_recorded_alpha(self):
        eff = 10
        config = small_config(max_iterations=12, n_candidates=PowerGrowthSchedule(8, 0.0))
        out = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.0, 0.9),
                                eff, 3, final_eval_budget=50)
        prev = 0
        for rec in out.records:
            spent = rec.cumulative_loss_evals - prev
            assert spent == 8 * inner_sample_size(rec.alpha, eff)
            prev = rec.cumulative_loss_evals
        assert out.final_eval_count == 50 * len(out.records)

    def test_reports_argmin_of_fresh_values(self):
        config = small_config(max_iterations=10)
        out = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.0, 0.9),
                                10, 9, final_eval_budget=300)
        j = int(np.argmin(out.record_values))
        assert out.final_best_cvar == out.record_values[j]
        np.testing.assert_array_equal(
            out.final_best_candidate, out.records[j].best_candidate
        )

    def test_degenerate_ramp_matches_fixed_run(self):
        # starting at the target makes the schedule inert; with matching
        # per-candidate budgets both entry points replay identical draws,
        # and the fixed run reports the ramp's fresh value at the record
        # with the best in-run estimate
        eff = 12
        config = small_config(max_iterations=6)
        ramp = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.9, 0.9),
                                 eff, 21, final_eval_budget=100)
        fixed = run_gass_cvar(config, self.LOSS, 0.9, inner_sample_size(0.9, eff), 21,
                              final_eval_budget=100)
        assert len(ramp.records) == len(fixed.records)
        for ra, rb in zip(ramp.records, fixed.records):
            assert ra.alpha == rb.alpha == 0.9
            assert ra.grad_norm == rb.grad_norm
            assert ra.best_cvar_estimate == rb.best_cvar_estimate
            assert ra.cumulative_loss_evals == rb.cumulative_loss_evals
            np.testing.assert_array_equal(ra.best_candidate, rb.best_candidate)
        j = int(np.argmin([r.best_cvar_estimate for r in fixed.records]))
        assert fixed.final_best_cvar == ramp.record_values[j]
        np.testing.assert_array_equal(fixed.final_best_candidate,
                                      ramp.records[j].best_candidate)
        assert fixed.record_values is None
        assert fixed.final_eval_count == 100

    def test_deterministic_given_seed(self):
        config = small_config(max_iterations=5)
        a = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.0, 0.9),
                              10, 4, final_eval_budget=100)
        b = run_gass_cvar_arl(config, self.LOSS, RiskSchedule.start(0.0, 0.9),
                              10, 4, final_eval_budget=100)
        np.testing.assert_array_equal(a.record_values, b.record_values)
        assert a.final_best_cvar == b.final_best_cvar


class TestConfigValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GassConfig(
                init_params=SamplingParams(mean=np.zeros(2), variance=np.ones(2)),
                box=symmetric_box(3, mean_bound=1.0, var_hi=1.0),
                shape=ShapeConfig(s_o=1.0, rho=0.5),
                step_size=PowerLawStepSize(1.0, 1.0, 0.6),
                n_candidates=PowerGrowthSchedule(10, 0.0),
            )

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            small_config(epsilon=0.0)

    def test_max_iterations_floor(self):
        with pytest.raises(ValueError):
            small_config(max_iterations=0)
