"""Benchmark checks against straight-from-the-formula references.

The reference implementations below are deliberately written as plain
Python loops, independent of the vectorised versions in the package,
so a transcription slip on either side shows up as a mismatch.
"""

import math

import numpy as np
import pytest

from cvarsearch.benchmarks import (
    BENCHMARK_IDS,
    BenchmarkLoss,
    l0_cvar_oracle,
    l0_min_cvar_oracle,
)
from cvarsearch.risk import gaussian_cvar_oracle


def ref_l0(x):
    return sum(v * v for v in x)


def ref_powell(x):
    total = 0.0
    for d in range(2, len(x) - 1):
        a, b, c, e = x[d - 2], x[d - 1], x[d], x[d + 1]
        total += (a + 10 * b) ** 2 + 5 * (c - e) ** 2 + (b - 2 * c) ** 4 + 10 * (a - e) ** 4
    return total


def ref_rosenbrock(x):
    total = 0.0
    for d in range(len(x) - 1):
        total += (x[d] - 1) ** 2 + 100 * (x[d] ** 2 - x[d + 1]) ** 2
    return total


def ref_rastrigin(x):
    return sum(v * v - 10 * math.cos(2 * math.pi * v) for v in x) - 10 * len(x) - 1


def ref_pinter(x):
    n = len(x)
    total = 0.0
    for d in range(n):
        prev = x[(d - 1) % n]
        nxt = x[(d + 1) % n]
        i = d + 1
        a = prev * math.sin(x[d]) - x[d] + math.sin(nxt)
        b = prev * prev - 2 * x[d] + 3 * nxt - math.cos(x[d]) + 1
        total += i * x[d] * x[d]
        total += 20 * i * math.sin(a) ** 2
        total += i * math.log10(1 + i * b * b)
    return total


def ref_levy(x):
    y = [1 + (v - 1) / 4 for v in x]
    total = math.sin(math.pi * y[0]) ** 2
    for d in range(len(x) - 1):
        total += (y[d] - 1) ** 2 * (1 + 10 * math.sin(math.pi * y[d] + 1) ** 2)
    total += (y[-1] - 1) ** 2 * (1 + 10 * math.sin(2 * math.pi * y[-1]) ** 2)
    return -total


REFS = {
    "l0": ref_l0,
    "powell": ref_powell,
    "rosenbrock": ref_rosenbrock,
    "rastrigin": ref_rastrigin,
    "pinter": ref_pinter,
    "levy": ref_levy,
}

MIN_DIM = {"powell": 4}
NOISE_CENTRE = {"l0": 1.0, "powell": 1.0, "rosenbrock": 2.0, "rastrigin": 1.0,
                "pinter": 1.0, "levy": 2.0}


def loss_value(benchmark_id, x):
    return BenchmarkLoss(benchmark_id, len(x)).deterministic(x)


@pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
def test_matches_reference_on_random_points(benchmark_id):
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(MIN_DIM.get(benchmark_id, 1), 12))
        x = rng.uniform(-5.0, 5.0, size=dim)
        got = BenchmarkLoss(benchmark_id, dim).deterministic(x)
        want = REFS[benchmark_id](list(x))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


class TestFrozenValues:
    # dyadic inputs keep the arithmetic exact end to end
    def test_l0(self):
        assert loss_value("l0", np.zeros(3)) == 0.0
        assert loss_value("l0", np.array([1.5, -2.0])) == 6.25

    def test_powell(self):
        assert loss_value("powell", np.ones(4)) == 122.0
        assert loss_value("powell", np.array([1.0, 2.0, 3.0, 4.0])) == 1512.0
        assert loss_value("powell", np.array([0.5, -1.0, 2.0, 0.0, 1.0])) == 1277.875

    def test_rosenbrock(self):
        assert loss_value("rosenbrock", np.zeros(3)) == 2.0
        assert loss_value("rosenbrock", np.ones(3)) == 0.0
        assert loss_value("rosenbrock", np.array([0.5, 0.5])) == 6.5
        assert loss_value("rosenbrock", np.array([-1.0, 2.0, 0.5])) == 1330.0

    def test_rastrigin(self):
        assert loss_value("rastrigin", np.zeros(10)) == -201.0
        assert loss_value("rastrigin", np.array([0.5, 0.5])) == -0.5
        got = loss_value("rastrigin", np.array([0.25, -0.75]))
        assert got == pytest.approx(-20.375, rel=1e-13)

    def test_pinter(self):
        assert loss_value("pinter", np.zeros(3)) == 0.0
        got = loss_value("pinter", np.ones(4))
        assert got == pytest.approx(102.18677808316033, rel=1e-13)
        got = loss_value("pinter", np.array([0.5, -0.5, 1.5]))
        assert got == pytest.approx(108.9203301985445, rel=1e-13)

    def test_levy(self):
        assert abs(loss_value("levy", np.ones(5))) < 1e-12
        got = loss_value("levy", np.zeros(3))
        assert got == pytest.approx(-1.369189108233949, rel=1e-13)
        got = loss_value("levy", np.array([2.0, -1.0]))
        assert got == pytest.approx(-1.4091554458830253, rel=1e-13)


class TestSpecValidation:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            BenchmarkLoss("sphere", 3)

    def test_powell_needs_four(self):
        with pytest.raises(ValueError, match="powell requires dim >= 4"):
            BenchmarkLoss("powell", 3)
        BenchmarkLoss("powell", 4)

    def test_dim_positive(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            BenchmarkLoss("l0", 0)

    def test_point_dim_checked(self):
        loss = BenchmarkLoss("l0", 3)
        rng = np.random.default_rng(0)
        for bad in (np.zeros(2), np.zeros((1, 3)), np.array([0.0, np.nan, 0.0]),
                    np.array([0.0, 0.0, np.inf])):
            with pytest.raises(ValueError, match="x must"):
                loss.deterministic(bad)
            with pytest.raises(ValueError, match="x must"):
                loss.noise_scale(bad)
            with pytest.raises(ValueError, match="x must"):
                loss.simulate(bad, 5, rng)


class TestNoise:
    def test_centre_assignment(self):
        for benchmark_id, centre in NOISE_CENTRE.items():
            dim = MIN_DIM.get(benchmark_id, 2)
            loss = BenchmarkLoss(benchmark_id, dim)
            assert loss.noise_scale(np.full(dim, centre)) == 1.0
            assert loss.noise_scale(np.full(dim, centre + 0.1)) > 1.0

    def test_scale_one_at_centre(self):
        assert BenchmarkLoss("l0", 5).noise_scale(np.ones(5)) == 1.0
        assert BenchmarkLoss("levy", 3).noise_scale(np.full(3, 2.0)) == 1.0

    def test_scale_value(self):
        # sqrt is correctly rounded, so this is a single representable value
        assert BenchmarkLoss("l0", 1).noise_scale(np.zeros(1)) == math.sqrt(101.0)
        assert BenchmarkLoss("l0", 1).noise_scale(np.zeros(1)) == pytest.approx(
            10.04987562112089, rel=1e-14
        )

    def test_scale_floor(self):
        rng = np.random.default_rng(7)
        loss = BenchmarkLoss("rosenbrock", 4)
        for _ in range(200):
            assert loss.noise_scale(rng.uniform(-10, 10, size=4)) >= 1.0

    def test_simulate_moments(self):
        loss = BenchmarkLoss("l0", 2)
        x = np.array([0.5, -0.5])
        draws = loss.simulate(x, 400_000, np.random.default_rng(21))
        base = loss.deterministic(x)
        sd = loss.noise_scale(x)
        assert abs(draws.mean() - base) < 5 * sd / math.sqrt(400_000)
        assert abs(draws.std(ddof=1) - sd) < 0.01 * sd

    def test_simulate_deterministic_given_stream(self):
        loss = BenchmarkLoss("rastrigin", 3)
        x = np.array([1.0, 2.0, 3.0])
        a = loss.simulate(x, 50, np.random.default_rng(3))
        b = loss.simulate(x, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
    def test_simulate_is_location_scale_draw(self, benchmark_id):
        dim = MIN_DIM.get(benchmark_id, 3)
        loss = BenchmarkLoss(benchmark_id, dim)
        x = np.linspace(-1.0, 1.5, dim)
        want = loss.deterministic(x) + loss.noise_scale(x) * (
            np.random.default_rng(9).standard_normal(600)
        )
        assert np.array_equal(loss.simulate(x, 600, np.random.default_rng(9)), want)


class TestLossHandle:
    def test_simulate_returns_m_draws(self):
        loss = BenchmarkLoss("powell", 4)
        draws = loss.simulate(np.ones(4), 10, np.random.default_rng(0))
        assert draws.shape == (10,)
        with pytest.raises(ValueError, match="m must be >= 1"):
            loss.simulate(np.ones(4), 0, np.random.default_rng(0))


class TestQuadraticOracles:
    def test_cvar_at_point(self):
        got = l0_cvar_oracle(np.zeros(1), 0.99)
        assert got == pytest.approx(26.785071418118026, rel=1e-12)
        got = l0_cvar_oracle(np.ones(10), 0.99)
        assert got == pytest.approx(12.665214220345804, rel=1e-12)

    def test_cvar_alpha_zero_is_deterministic_loss(self):
        x = np.array([0.3, -1.2, 0.7])
        assert l0_cvar_oracle(x, 0.0) == loss_value("l0", x)

    def test_cvar_agrees_with_gaussian_form(self):
        x = np.array([0.5, 1.5])
        loss = BenchmarkLoss("l0", 2)
        want = gaussian_cvar_oracle(loss.deterministic(x), loss.noise_scale(x), 0.95)
        assert l0_cvar_oracle(x, 0.95) == pytest.approx(want, rel=1e-14)

    def test_min_frozen_values(self):
        point, value = l0_min_cvar_oracle(2, 0.95)
        assert value == pytest.approx(4.04341858247029, rel=1e-8)
        np.testing.assert_allclose(point, np.full(2, point[0]))
        assert 0.98 < point[0] < 1.0

        _, value10 = l0_min_cvar_oracle(10, 0.99)
        assert value10 == pytest.approx(12.589677973774648, rel=1e-8)

    def test_min_is_global_on_random_probes(self):
        point, value = l0_min_cvar_oracle(3, 0.9)
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.uniform(-2.0, 3.0, size=3)
            assert l0_cvar_oracle(x, 0.9) >= value - 1e-9

    def test_min_nondecreasing_in_alpha(self):
        values = [l0_min_cvar_oracle(2, a)[1] for a in (0.0, 0.5, 0.9, 0.99)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_min_alpha_zero_is_origin(self):
        point, value = l0_min_cvar_oracle(4, 0.0)
        # mean objective: quadratic alone, minimised at zero
        np.testing.assert_allclose(point, np.zeros(4), atol=1e-6)
        assert abs(value) < 1e-10
