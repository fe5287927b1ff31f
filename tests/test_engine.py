import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvarsearch
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


class NoiselessLoss:
    """Deterministic quadratic bowl pretending to be a simulator."""

    def simulate(self, x, m, rng):
        return np.full(m, float(np.sum(np.square(x))))


def small_config(dim=2, **overrides):
    defaults = dict(
        init_params=SamplingParams(
            mean=np.full(dim, 3.0), variance=np.full(dim, 4.0)
        ),
        box=ProjectionBox(-10.0, 10.0, 1e-4, 10.0),
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


def test_newton_step_counts_negative_eigenvalues_as_zero():
    # round-off can leave an eigenvalue of a singular variance matrix below
    # -epsilon; counted as zero, it neither flips nor blows up the step
    eps = 1e-10
    got = newton_step_vector(np.zeros(2), np.array([1.0, 1.0]), np.diag([-1e-6, 1.0]), 1.0, eps)
    np.testing.assert_allclose(got, [1.0 / eps, 1.0 / (1.0 + eps)], rtol=1e-12)


class TestNewtonUpdate:
    BOX = ProjectionBox(-5.0, 5.0, 0.1, 8.0)

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


class TestStepSeams:
    """The layer tracer times ``_step``'s kernels by wrapping the engine
    globals of these names, so ``_step`` must look each one up there."""

    NAMES = ("sample_quantile_threshold", "shape", "normalized_weights",
             "sufficient_statistics", "expected_sufficient_statistics", "to_natural",
             "sample_variance_matrix", "newton_step_vector", "_project_raw_natural")

    def test_one_call_per_iteration(self, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        out = run_gass_cvar_arl(small_config(max_iterations=3), BenchmarkLoss("l0", 2),
                                RiskSchedule.start(0.0, 0.9), 5, 0, final_eval_budget=10)
        assert len(out.records) == 3
        assert calls == dict.fromkeys(self.NAMES, 3)


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

    def test_independent_of_cpu_dispatch(self):
        # np.partition leaves its output in an order that depends on the
        # SIMD kernel NumPy dispatches to; with its AVX-512 kernels disabled
        # the estimates must keep every bit
        targets = _avx512_dispatch_targets()
        if not targets:
            pytest.skip("this NumPy dispatches no AVX-512 kernel on this CPU")
        runs = [_evaluate_in_subprocess({}),
                _evaluate_in_subprocess({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})]
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_candidates(self.LOSS, [], 0.9, 10, 0)
        with pytest.raises(ValueError):
            evaluate_candidates(self.LOSS, [np.zeros(2)], 0.9, 0, 0)


def _avx512_dispatch_targets() -> list[str]:
    """The AVX-512 targets the running NumPy dispatches to on this CPU, by
    the names ``NPY_DISABLE_CPU_FEATURES`` takes (NumPy 1.x and 2.x)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if ("AVX512" in name or name == "X86_V4") and umath.__cpu_features__.get(name)]


_DISPATCH_RUN = """
import sys
import numpy as np
from cvarsearch.benchmarks import BenchmarkLoss
from cvarsearch.engine import evaluate_candidates
loss = BenchmarkLoss("l0", 2)
xs = np.random.default_rng(1).uniform(-2.0, 2.0, (40, 2))
for alpha, m in [(0.5, 30), (0.95, 600), (0.99, 5000)]:
    sys.stdout.write(evaluate_candidates(loss, xs[:8] if m > 600 else xs, alpha, m, 3).tobytes().hex())
"""


def _evaluate_in_subprocess(env: dict) -> str:
    src = os.path.dirname(os.path.dirname(cvarsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _DISPATCH_RUN], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class ShortLoss:
    """A loss that returns one draw, as an array or a bare float, not m."""

    def __init__(self, as_float):
        self.as_float = as_float

    def simulate(self, x, m, rng):
        value = float(np.sum(x))
        return value if self.as_float else np.array([value])


class TestLossEntry:
    @pytest.mark.parametrize("as_float, got", [(False, "(1,)"), (True, "()")],
                             ids=["array", "float"])
    def test_short_draws_rejected(self, as_float, got):
        loss = ShortLoss(as_float)
        with pytest.raises(ValueError, match=re.escape(f"shape {got}, expected (50,)")):
            evaluate_candidates(loss, [np.array([1.0, 2.0])], 0.9, 50, 0)
        with pytest.raises(ValueError, match=re.escape(f"shape {got}")):
            run_gass_cvar_arl(small_config(max_iterations=2), loss,
                              RiskSchedule.start(0.0, 0.9), 5, 0, final_eval_budget=10)


# (n, m): four whole chunks and a partial fifth; one-row chunks (m above
# 2**16); one candidate
BLOCK_CASES = [
    (4 * engine._chunk_rows(5000) + 3, 5000),
    (3, 2**17 + 1),
    (1, 5000),
]


def _one_at_a_time(loss, xs, alpha, m, seq, *key):
    """Chunk reference: a 1-d estimate per candidate, each chunk's rows
    drawn in order from ``generator(substream(seq, *key, c))``."""
    chunk = engine._chunk_rows(m)
    out = []
    for j, x in enumerate(xs):
        if j % chunk == 0:
            rng = generator(substream(seq, *key, j // chunk))
        out.append(empirical_cvar(loss.simulate(x, m, rng), alpha))
    return np.array(out)


def record_estimates(monkeypatch) -> list:
    """Collect every CVaR estimate the engine computes, in call order."""
    estimates = []

    def recording_cvar(losses, level, **kwargs):
        out = empirical_cvar(losses, level, **kwargs)
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
        # threads evaluate candidates out of order, so the estimates are
        # taken by position from the update and the candidates re-drawn
        # from iteration 0's candidate stream
        steps = []

        def recording_step(params, xs, cvars, k, config):
            steps.append(cvars)
            return step(params, xs, cvars, k, config)

        step = engine._step
        monkeypatch.setattr(engine, "_step", recording_step)
        config = small_config(n_candidates=PowerGrowthSchedule(n, 0.0), max_iterations=1)
        run_gass_cvar(config, self.LOSS, alpha, m, 19, final_eval_budget=10)
        seq = as_seed_sequence(19)
        xs = sample(config.init_params, n,
                    generator(substream(seq, engine._CANDIDATE_REALM, 0)))
        want = _one_at_a_time(self.LOSS, xs, alpha, m, seq, engine._LOSS_REALM, 0)
        assert np.array_equal(steps[0], want)

    def test_search_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # the 400 x 5000 loss matrix alone would take 16 MB; two threads
        # hold a 512 KiB chunk buffer each
        monkeypatch.setattr(engine, "_THREADS", 2)
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


class ShortAtLoss:
    """Benchmark loss that returns one draw, not m, at the candidate whose
    first coordinate is ``short_at``.  It counts its ``simulate`` calls
    under a lock, and notes the count at the short draw."""

    def __init__(self, dim, short_at):
        self.inner = BenchmarkLoss("l0", dim)
        self.short_at = short_at
        self.lock = threading.Lock()
        self.calls = 0
        self.calls_at_short = None

    def simulate(self, x, m, rng):
        with self.lock:
            self.calls += 1
            if x[0] == self.short_at:
                self.calls_at_short = self.calls
                return np.zeros(1)
        return self.inner.simulate(x, m, rng)


# (n, m): one partial chunk below the thread break-even (218 candidates per
# chunk); seven whole chunks and a partial eighth above it (26 per chunk);
# three whole chunks and a partial fourth at it (43 per chunk)
CHUNK_CASES = [(197, 300), (197, 2500), (3 * engine._chunk_rows(1500) + 5, 1500)]

# (n, m): four chunks and a partial one; one chunk of two candidates; one
# candidate; one chunk of seven at 1,999 and 2,000 draws; seven chunks of
# 32; five chunks of 43 just below and at the break-even; and the chunk
# cases
THREAD_CASES = BLOCK_CASES[:1] + [
    (2, 5000),
    (1, 5000),
    (7, 1999),
    (7, 2000),
    (200, 2000),
    (200, engine._THREAD_MIN_DRAWS - 1),
    (200, engine._THREAD_MIN_DRAWS),
] + CHUNK_CASES


def record_claims(monkeypatch):
    """Record each chunk stream the engine builds, with the thread that
    built it, and the worker count of every thread pool it starts."""
    built, pools = [], []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    def recording_substream(seq, *key):
        built.append((key[-1], threading.get_ident()))
        return build(seq, *key)

    build = engine.substream
    monkeypatch.setattr(engine, "substream", recording_substream)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
    return built, pools


def assert_claimed_once(claims, n, m, threads):
    """Each chunk's stream was built exactly once, by at most
    min(threads, chunks) threads, and a pool was started for the threads
    beyond the calling one only from the break-even on."""
    built, pools = claims
    chunks = -(-n // engine._chunk_rows(m))
    threads = min(threads, chunks) if m >= engine._THREAD_MIN_DRAWS else 1
    assert sorted(c for c, _ in built) == list(range(chunks))
    assert len({thread for _, thread in built}) <= threads
    assert pools == ([threads - 1] if threads > 1 else [])


class TestThreadedEvaluation:
    LOSS = BenchmarkLoss("l0", 2)

    @pytest.mark.parametrize("n,m", THREAD_CASES)
    @pytest.mark.parametrize("alpha", [0.0, 0.95])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_matches_one_at_a_time(self, n, m, alpha, threads, monkeypatch):
        monkeypatch.setattr(engine, "_THREADS", threads)
        claims = record_claims(monkeypatch)
        xs = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, 2))
        got = evaluate_candidates(self.LOSS, xs, alpha, m, 11)
        want = _one_at_a_time(self.LOSS, xs, alpha, m, as_seed_sequence(11))
        assert np.array_equal(got, want)
        assert_claimed_once(claims, n, m, threads)

    def test_thread_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        claims = record_claims(monkeypatch)
        m = engine._THREAD_MIN_DRAWS
        n = 4 * engine._chunk_rows(m)
        xs = np.random.default_rng(5).uniform(-2.0, 2.0, size=(n, 2))
        evaluate_candidates(self.LOSS, xs, 0.9, m, 11)
        assert_claimed_once(claims, n, m, 3)

    def test_late_pool_threads_leave_every_chunk_to_the_caller(self, monkeypatch):
        # the pool's tasks wait until the calling thread asks for their
        # results, which it does once its own share of the work is done
        monkeypatch.setattr(engine, "_THREADS", 3)
        claims = record_claims(monkeypatch)
        released = threading.Event()

        class LatePool(engine.ThreadPoolExecutor):
            def submit(self, fn):
                def late():
                    released.wait(timeout=10)
                    return fn()

                future = super().submit(late)
                result = future.result

                def release_then_result(*a, **kw):
                    released.set()
                    return result(*a, **kw)

                future.result = release_then_result
                return future

        monkeypatch.setattr(engine, "ThreadPoolExecutor", LatePool)
        m = engine._THREAD_MIN_DRAWS
        n = 4 * engine._chunk_rows(m) + 3
        xs = np.random.default_rng(7).uniform(-2.0, 2.0, size=(n, 2))
        got = evaluate_candidates(self.LOSS, xs, 0.95, m, 11)
        assert np.array_equal(got, _one_at_a_time(self.LOSS, xs, 0.95, m, as_seed_sequence(11)))
        assert_claimed_once(claims, n, m, 3)
        assert {thread for _, thread in claims[0]} == {threading.get_ident()}

    def test_each_chunk_claimed_once_under_fast_switches(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter
        # allows: a chunk claimed twice, or never, shows in the streams built
        monkeypatch.setattr(engine, "_THREADS", 5)
        m = engine._THREAD_MIN_DRAWS
        n = 40 * engine._chunk_rows(m) + 1
        claims = record_claims(monkeypatch)
        xs = np.random.default_rng(9).uniform(-2.0, 2.0, size=(n, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = evaluate_candidates(self.LOSS, xs, 0.95, m, 11)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, _one_at_a_time(self.LOSS, xs, 0.95, m, as_seed_sequence(11)))
        assert_claimed_once(claims, n, m, 5)

    # the first candidate, and the first of the second chunk
    @pytest.mark.parametrize("bad", [0, engine._chunk_rows(engine._THREAD_MIN_DRAWS)],
                             ids=["first_chunk", "second_chunk"])
    def test_short_draws_reach_the_caller(self, bad, monkeypatch):
        monkeypatch.setattr(engine, "_THREADS", 2)
        m = engine._THREAD_MIN_DRAWS
        xs = np.arange(4.0 * engine._chunk_rows(m)).reshape(-1, 2)
        loss = ShortAtLoss(2, short_at=xs[bad, 0])
        before = threading.active_count()
        with pytest.raises(ValueError, match=re.escape(f"shape (1,), expected ({m},)")):
            evaluate_candidates(loss, xs, 0.9, m, 0)
        assert threading.active_count() == before

    def test_first_error_stops_the_other_threads(self, monkeypatch):
        # the failing thread takes every unclaimed chunk, so after the short
        # draw each other thread finishes at most the chunk it holds and one
        # it claimed before that
        monkeypatch.setattr(engine, "_THREADS", 2)
        m = 1500
        xs = np.arange(2.0 * 1720).reshape(-1, 2)
        loss = ShortAtLoss(2, short_at=xs[0, 0])
        with pytest.raises(ValueError, match=re.escape(f"shape (1,), expected ({m},)")):
            evaluate_candidates(loss, xs, 0.9, m, 0)
        assert loss.calls - loss.calls_at_short <= 2 * engine._chunk_rows(m)


class NormalLoss:
    """Standard normal draws, kept by the candidate index in x[0]."""

    def __init__(self):
        self.rows = {}

    def simulate(self, x, m, rng):
        draws = rng.standard_normal(m)
        self.rows[int(x[0])] = draws.copy()
        return draws


class TestChunkedStreams:
    LOSS = BenchmarkLoss("l0", 2)

    def test_chunk_rows(self):
        ms = (1, 1024, 1025, 5000, 2**16, 2**16 + 1)
        assert [engine._chunk_rows(m) for m in ms] == [65536, 64, 63, 13, 1, 1]

    @pytest.mark.parametrize("n,m", CHUNK_CASES)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_rows_are_consecutive_draws(self, n, m, threads, monkeypatch):
        monkeypatch.setattr(engine, "_THREADS", threads)
        loss = NormalLoss()
        xs = np.repeat(np.arange(n, dtype=float)[:, None], 2, axis=1)
        got = evaluate_candidates(loss, xs, 0.5, m, 11)
        rows = np.array([loss.rows[i] for i in range(n)])
        chunk = engine._chunk_rows(m)
        for c, lo in enumerate(range(0, n, chunk)):
            hi = min(lo + chunk, n)
            stream = generator(substream(as_seed_sequence(11), c))
            assert np.array_equal(rows[lo:hi], stream.standard_normal((hi - lo, m)))
        assert np.array_equal(got, empirical_cvar(rows, 0.5))


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
        # the single re-evaluation of record j is a one-candidate
        # evaluation under its own key, (final realm, j)
        config = small_config(max_iterations=4)
        lean = run_gass_cvar(config, self.LOSS, 0.9, 10, 3,
                             final_eval_budget=400)
        j = int(np.argmin([r.best_cvar_estimate for r in lean.records]))
        alone = evaluate_candidates(
            self.LOSS, [lean.records[j].best_candidate], 0.9, 400,
            substream(as_seed_sequence(3), engine._FINAL_REALM, j),
        )
        assert lean.final_best_cvar == alone[0]

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
        np.testing.assert_array_equal(out.records.family_mean[0], config.init_params.mean)
        np.testing.assert_array_equal(out.records.family_variance[0],
                                      config.init_params.variance)

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
        "evaluate_alpha": lambda loss: evaluate_candidates(
            loss, np.zeros((300, 2)), 1.0, 500, 0),
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


class TestIntegerCounts:
    """A count or a seed must be an integer: a float is refused, not truncated."""

    LOSS = BenchmarkLoss("l0", 2)
    CASES = {
        "max_iterations": lambda loss: small_config(max_iterations=2.5),
        "growth_base": lambda loss: PowerGrowthSchedule(2.5, 0.0),
        "dim": lambda loss: BenchmarkLoss("l0", 2.7),
        "simulate_m": lambda loss: loss.simulate(np.zeros(2), 3.9, np.random.default_rng(0)),
        "effective_size": lambda loss: inner_sample_size(0.5, 30.9),
        "evaluate_budget": lambda loss: evaluate_candidates(loss, [np.zeros(2)], 0.9, 2.5, 0),
        "inner_budget": lambda loss: run_gass_cvar(small_config(), loss, 0.9, 5.5, 0),
        "fixed_final_eval_budget": lambda loss: run_gass_cvar(
            small_config(), loss, 0.9, 5, 0, final_eval_budget=10.5),
        "arl_final_eval_budget": lambda loss: run_gass_cvar_arl(
            small_config(), loss, RiskSchedule.start(0.0, 0.9), 5, 0, final_eval_budget=10.5),
        "arl_seed": lambda loss: run_gass_cvar_arl(
            small_config(), loss, RiskSchedule.start(0.0, 0.9), 5, 2.7),
        "evaluate_seed": lambda loss: evaluate_candidates(loss, [np.zeros(2)], 0.9, 10, 2.7),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_float_count_rejected(self, case):
        with pytest.raises(TypeError):
            self.CASES[case](self.LOSS)

    def test_numpy_integers_accepted(self):
        assert small_config(max_iterations=np.int64(3)).max_iterations == 3
        assert BenchmarkLoss("l0", np.int64(2)).dim == 2
        draws = self.LOSS.simulate(np.zeros(2), np.int64(3), np.random.default_rng(0))
        assert draws.shape == (3,)
        assert inner_sample_size(0.5, np.int64(30)) == 60
        assert evaluate_candidates(self.LOSS, [np.zeros(2)], 0.9, np.int64(10), 0).shape == (1,)


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
        # and the fixed run reports the record with the best in-run
        # estimate, j, re-evaluated under its own key (final realm, j)
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
        alone = evaluate_candidates(
            self.LOSS, [ramp.records[j].best_candidate], 0.9, 100,
            substream(as_seed_sequence(21), engine._FINAL_REALM, j),
        )
        assert fixed.final_best_cvar == alone[0]
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
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            small_config(epsilon=0.0)

    def test_max_iterations_floor(self):
        with pytest.raises(ValueError):
            small_config(max_iterations=0)
