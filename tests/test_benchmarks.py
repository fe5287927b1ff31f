"""Benchmark checks against straight-from-the-formula references.

The reference implementations below are deliberately written as plain
Python loops straight from the textbook formulas, with ``**`` and
``sum``, independently of the package's own float loops, so a
transcription slip on either side shows up as a mismatch.
"""

import itertools
import math
import re

import numpy as np
import pytest

from cvarsearch.benchmarks import (
    BENCHMARK_IDS,
    BenchmarkLoss,
    l0_min_cvar_oracle,
)
from cvarsearch.engine import evaluate_candidates
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


@pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
def test_overflow_is_infinite(benchmark_id):
    # a square that overflows is inf, as NumPy's is, never an OverflowError;
    # levy's loss is a negated sum of squares
    loss = BenchmarkLoss(benchmark_id, 4)
    want = -math.inf if benchmark_id == "levy" else math.inf
    for x in itertools.product([1e200, -1e200, 1e160], repeat=4):
        assert loss.deterministic(x) == want
        assert loss.noise_scale(x) == math.inf


def test_exact_cvar_of_an_overflowed_loss_is_refused():
    # a finite point whose L(x) overflows has no finite CVaR
    with pytest.raises(ValueError, match=r"^mean must be finite, got inf$"):
        BenchmarkLoss("rosenbrock", 2).cvar([1e100, 1e100], 0.9)


def test_cosine_of_overflowed_argument_is_nan():
    # 2 pi x overflows to inf at x = 1e308, whose cosine is nan, as in NumPy
    loss = BenchmarkLoss("rastrigin", 1)
    assert math.isnan(loss.deterministic([1e308]))
    assert loss.noise_scale([1e308]) == math.inf


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

    @pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
    @pytest.mark.parametrize("m", [1, 600])
    def test_simulate_consumes_m_standard_normals(self, benchmark_id, m):
        # the engine resets each candidate's generator after the call, but a
        # caller drawing on from it must find it where standard_normal(m)
        # leaves it
        dim = MIN_DIM.get(benchmark_id, 3)
        rng, want = np.random.default_rng(9), np.random.default_rng(9)
        BenchmarkLoss(benchmark_id, dim).simulate(np.linspace(-1.0, 1.5, dim), m, rng)
        want.standard_normal(m)
        assert rng.bit_generator.state == want.bit_generator.state


class StandardNormalOnly:
    """A stream that offers ``standard_normal`` alone, from an SFC64
    generator: a loss drawing in any other way fails on it."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.SFC64(seed))

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs)


class TestGivenNormals:
    """``simulate(x, m, rng, normals=z)`` forms the losses in z in place,
    z * s(x) rounded and then L(x) added: the formula ``simulate(x, m,
    rng)`` applies to the normals it draws itself (see
    ``TestChunkedNormals`` in the engine tests)."""

    @pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
    @pytest.mark.parametrize("m", [1, 600])
    def test_matches_rng_normal_on_a_twin_stream(self, benchmark_id, m):
        dim = MIN_DIM.get(benchmark_id, 3)
        loss = BenchmarkLoss(benchmark_id, dim)
        for x in np.random.default_rng(4).uniform(-3.0, 3.0, size=(5, dim)):
            rng, twin = np.random.default_rng(12), np.random.default_rng(12)
            z = twin.standard_normal(m)
            got = loss.simulate(x, m, twin, normals=z)
            assert got is z
            scaled = rng.standard_normal(m) * loss.noise_scale(x)
            want = scaled + loss.deterministic(x)
            assert got.tobytes() == want.tobytes()
            # the given normals take nothing more from the stream
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
    @pytest.mark.parametrize("m", [1, 600])
    def test_drawn_normals_formed_as_given_ones(self, benchmark_id, m):
        # simulate draws by standard_normal alone, so its losses are the
        # given-normals losses on a twin stream, bit for bit
        dim = MIN_DIM.get(benchmark_id, 3)
        loss = BenchmarkLoss(benchmark_id, dim)
        for x in np.random.default_rng(4).uniform(-3.0, 3.0, size=(5, dim)):
            got = loss.simulate(x, m, StandardNormalOnly(12))
            twin = np.random.Generator(np.random.SFC64(12))
            want = loss.simulate(x, m, twin, normals=twin.standard_normal(m))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [
        np.zeros(5), np.zeros(3), np.zeros((1, 4)), np.zeros(4, dtype=np.float32),
        np.zeros(4, dtype=np.int64), [0.0] * 4, 0.0,
    ], ids=["long", "short", "2-d", "float32", "int64", "list", "scalar"])
    def test_other_normals_refused(self, bad):
        loss = BenchmarkLoss("l0", 2)
        with pytest.raises(ValueError, match=re.escape("normals must be a float64 array "
                                                       "of shape (4,)")):
            loss.simulate([0.5, 0.5], 4, np.random.default_rng(0), normals=bad)


class TestLossHandle:
    def test_simulate_returns_m_draws(self):
        loss = BenchmarkLoss("powell", 4)
        draws = loss.simulate(np.ones(4), 10, np.random.default_rng(0))
        assert draws.shape == (10,)
        with pytest.raises(ValueError, match="m must be >= 1"):
            loss.simulate(np.ones(4), 0, np.random.default_rng(0))


@pytest.mark.parametrize("benchmark_id", BENCHMARK_IDS)
class TestExactCvar:
    # D = 4 is the smallest dimension every benchmark accepts
    X = np.array([0.5, -0.25, 1.0, 0.75])

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95, 0.99])
    def test_is_gaussian_form(self, benchmark_id, alpha):
        loss = BenchmarkLoss(benchmark_id, 4)
        rng = np.random.default_rng(3)
        for x in [self.X, *rng.uniform(-5.0, 5.0, size=(20, 4))]:
            want = gaussian_cvar_oracle(loss.deterministic(x), loss.noise_scale(x), alpha)
            assert loss.cvar(x, alpha) == want

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_monte_carlo_mean_within_four_standard_errors(self, benchmark_id, alpha):
        loss = BenchmarkLoss(benchmark_id, 4)
        estimates = evaluate_candidates(loss, [self.X] * 100, alpha, 10_000, 11)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - loss.cvar(self.X, alpha)) <= 4.0 * se


L0_MIN_ALPHAS = (0.0, 0.5, 0.9, 0.95, 0.99)
# float.hex of the l0 CVaR minimum at L0_MIN_ALPHAS, found by the earlier
# method: the best of a 100,001-point profile grid over [-0.5, 1.5] and a
# bounded Brent search (xatol 1e-9) around that grid point
L0_MIN_GRID_BRENT = {
    1: ("0x0.0p+0", "0x1.c5e787833a23fp+0", "0x1.5f30e83644ba8p+1", "0x1.86cb95c459173p+1",
        "0x1.d4315718a8be1p+1"),
    2: ("0x0.0p+0", "0x1.5face81ee70f4p+1", "0x1.ddbc28ce2d70ep+1", "0x1.02c75ebbefe8ap+2",
        "0x1.299e21b681b5ap+2"),
    3: ("0x0.0p+0", "0x1.dc4a052154740p+1", "0x1.2e2280a919f21p+2", "0x1.4228358cc3a86p+2",
        "0x1.692340709c9aep+2"),
    10: ("0x0.0p+0", "0x1.500e4bf033995p+3", "0x1.746edb26e15b7p+3", "0x1.7edc41357b20cp+3",
         "0x1.92dea4579113cp+3"),
    50: ("0x0.0p+0", "0x1.4421975ed8cc2p+5", "0x1.98745349919b4p+5", "0x1.9c14fd56434f2p+5",
         "0x1.a21a7d82777e3p+5"),
}


class TestQuadraticOracles:
    def test_cvar_at_point(self):
        got = BenchmarkLoss("l0", 1).cvar(np.zeros(1), 0.99)
        assert got == pytest.approx(26.785071418118026, rel=1e-12)
        got = BenchmarkLoss("l0", 10).cvar(np.ones(10), 0.99)
        assert got == pytest.approx(12.665214220345804, rel=1e-12)

    def test_cvar_alpha_zero_is_deterministic_loss(self):
        x = np.array([0.3, -1.2, 0.7])
        assert BenchmarkLoss("l0", 3).cvar(x, 0.0) == loss_value("l0", x)

    def test_cvar_agrees_with_gaussian_form(self):
        x = np.array([0.5, 1.5])
        loss = BenchmarkLoss("l0", 2)
        want = gaussian_cvar_oracle(loss.deterministic(x), loss.noise_scale(x), 0.95)
        assert loss.cvar(x, 0.95) == pytest.approx(want, rel=1e-14)

    def test_min_frozen_values(self):
        point, value = l0_min_cvar_oracle(2, 0.95)
        assert value == pytest.approx(4.04341858247029, rel=1e-8)
        np.testing.assert_allclose(point, np.full(2, point[0]))
        assert 0.98 < point[0] < 1.0

        _, value10 = l0_min_cvar_oracle(10, 0.99)
        assert value10 == pytest.approx(12.589677973774648, rel=1e-8)

    def test_min_is_global_on_random_probes(self):
        point, value = l0_min_cvar_oracle(3, 0.9)
        loss = BenchmarkLoss("l0", 3)
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.uniform(-2.0, 3.0, size=3)
            assert loss.cvar(x, 0.9) >= value - 1e-9

    def test_min_nondecreasing_in_alpha(self):
        values = [l0_min_cvar_oracle(2, a)[1] for a in (0.0, 0.5, 0.9, 0.99)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_min_float_dim_rejected(self):
        with pytest.raises(TypeError):
            l0_min_cvar_oracle(2.0, 0.95)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_min_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
            l0_min_cvar_oracle(dim, 0.95)

    def test_min_alpha_zero_is_origin(self):
        point, value = l0_min_cvar_oracle(4, 0.0)
        # mean objective: quadratic alone, minimised at zero
        np.testing.assert_allclose(point, np.zeros(4), atol=1e-6)
        assert abs(value) < 1e-10
        assert np.array_equal(point, np.zeros(4)) and value == 0.0

    def test_min_exact_pins(self):
        # the shipped desk (D = 2, alpha* = 0.95) and paper (D = 10,
        # alpha* = 0.99) references: 4.04341858247029 and 12.589677973774648
        assert l0_min_cvar_oracle(2, 0.95)[1].hex() == "0x1.02c75ebbefe8ap+2"
        assert l0_min_cvar_oracle(10, 0.99)[1].hex() == "0x1.92dea4579113cp+3"

    @pytest.mark.parametrize("dim", sorted(L0_MIN_GRID_BRENT))
    @pytest.mark.parametrize("i, alpha", enumerate(L0_MIN_ALPHAS))
    def test_min_matches_grid_and_brent_search(self, dim, i, alpha):
        want = float.fromhex(L0_MIN_GRID_BRENT[dim][i])
        value = l0_min_cvar_oracle(dim, alpha)[1]
        assert abs(value - want) <= 1e-15 * want

    @pytest.mark.parametrize("dim", sorted(L0_MIN_GRID_BRENT))
    @pytest.mark.parametrize("alpha", L0_MIN_ALPHAS)
    def test_min_no_higher_than_profile_grid(self, dim, alpha):
        c = gaussian_cvar_oracle(0.0, 1.0, alpha)
        t = np.linspace(-0.5, 1.5, 100_001)
        profile = dim * t * t + np.sqrt(1.0 + 100.0 * dim * (t - 1.0) ** 2) * c
        point, value = l0_min_cvar_oracle(dim, alpha)
        assert value <= np.nextafter(profile.min(), np.inf)
        assert 0.0 <= point[0] <= 1.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, math.nan])
    def test_min_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            l0_min_cvar_oracle(2, alpha)
