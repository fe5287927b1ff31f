import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from cvarsearch.risk import _ndtri, empirical_cvar, gaussian_cvar_oracle

losses_1d = arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


def clip_cvar(losses, alpha):
    """Reference CVaR reduction on the sorted sample s: the clipped excess
    over the VaR s[k] is zero below it, so it is the excess of s[k + 1:],
    kept at or below the sample maximum against round-off."""
    arr = np.asarray(losses, dtype=float)
    if alpha == 0.0:
        out = np.maximum(arr.mean(axis=-1), arr.min(axis=-1))
        return float(out) if arr.ndim == 1 else out
    m = arr.shape[-1]
    k = max(1, math.ceil(alpha * m)) - 1
    s = np.sort(arr, axis=-1)
    v = s[..., k]
    excess = (s[..., k + 1:] - v[..., None]).sum(axis=-1)
    out = np.minimum(v + excess / (m * (1.0 - alpha)), s[..., -1])
    return float(out) if arr.ndim == 1 else out


def canonical_bytes(values) -> bytes:
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float's bits
    # as they are: ties of 0.0 and -0.0 may sort either way round
    return (np.asarray(values, dtype=float) + 0.0).tobytes()


class TestEmpiricalCvar:
    def test_worked_example(self):
        x = np.arange(1.0, 11.0)
        assert empirical_cvar(x, 0.8) == 9.5

    def test_alpha_zero_equals_sample_mean(self):
        x = np.arange(1.0, 11.0)
        assert empirical_cvar(x, 0.0) == 5.5
        draws = np.random.default_rng(3).normal(size=10_001)
        assert empirical_cvar(draws, 0.0) == draws.mean()

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 0.95])
    def test_constant_array(self, alpha):
        # exceedances vanish identically, so any constant passes through
        x = np.full(7, 3.7)
        assert empirical_cvar(x, alpha) == 3.7

    def test_constant_array_alpha_zero(self):
        # dyadic constant keeps the mean reduction exact as well
        assert empirical_cvar(np.full(7, 2.5), 0.0) == 2.5
        assert empirical_cvar(np.full(3, -0.75), 0.0) == -0.75

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, np.nan,
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\), got "):
            empirical_cvar(np.array([1.0]), alpha)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cvar(np.array([]), 0.5)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 31))
        batch = empirical_cvar(x, 0.9)
        rows = np.array([empirical_cvar(row, 0.9) for row in x])
        np.testing.assert_array_equal(batch, rows)

    @given(x=losses_1d, alpha=st.floats(0.0, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_dominates_var(self, x, alpha):
        var = np.sort(x)[max(1, math.ceil(alpha * x.size)) - 1]
        assert empirical_cvar(x, alpha) >= var

    @given(x=losses_1d, alpha=st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_max(self, x, alpha):
        assert empirical_cvar(x, alpha) <= x.max() + 1e-9 * abs(x.max())

    def test_round_off_clamped_to_max(self):
        # v + excess / (M (1 - alpha)) = -1 + 1 = 0.0 here, above the maximum
        x = np.array([-3.349046170511166e-193, -1.0])
        assert empirical_cvar(x, 0.5) <= x.max()
        assert np.all(empirical_cvar(np.stack([x, x[::-1]]), 0.5) <= x.max())

    @given(
        x=losses_1d,
        alpha=st.sampled_from([0.0, 0.5, 0.9]),
        a=st.floats(0.01, 100.0),
        b=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_equivariance(self, x, alpha, a, b):
        lhs = empirical_cvar(a * x + b, alpha)
        rhs = a * empirical_cvar(x, alpha) + b
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-9 * (abs(b) + 1.0))

    @pytest.mark.parametrize("m", [1, 2, 557, 5000])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95, 0.99, "top"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_clip_reference(self, m, alpha, ties):
        # "top" puts the VaR at the sample maximum: j = ceil(alpha m) = m
        alpha = 1.0 - 0.5 / m if alpha == "top" else alpha
        rng = np.random.default_rng(m)
        x = rng.standard_normal((7, m)) * np.exp(rng.uniform(-3, 3, (7, m)))
        if ties:
            x = np.round(x, 1)
        assert empirical_cvar(x[0], alpha) == clip_cvar(x[0], alpha)
        assert np.array_equal(empirical_cvar(x, alpha), clip_cvar(x, alpha))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_input_untouched(self, alpha):
        x = np.array([[3.0, 1.0, 2.0, 5.0], [-1.0, 4.0, 0.5, 2.0]])
        before = x.copy()
        empirical_cvar(x, alpha)
        empirical_cvar(x[1], alpha)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("m", [1, 2, 557])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95, "top"])
    def test_overwrite_input(self, m, alpha):
        # the same values as the default; the input is left a permutation of
        # itself, row by row
        alpha = 1.0 - 0.5 / m if alpha == "top" else alpha
        x = np.round(np.random.default_rng(m).standard_normal((5, m)), 1)
        want = empirical_cvar(x, alpha)
        scratch = x.copy()
        assert empirical_cvar(scratch, alpha, overwrite_input=True).tobytes() == want.tobytes()
        np.testing.assert_array_equal(np.sort(scratch, axis=-1), np.sort(x, axis=-1))
        row = x[0].copy()
        assert empirical_cvar(row, alpha, overwrite_input=True) == want[0]
        np.testing.assert_array_equal(np.sort(row), np.sort(x[0]))

    @given(
        x=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 400)),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64)
            | st.sampled_from([0.0, -0.0, 1.5]),
        ),
        alpha=st.floats(1e-6, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_permutation_invariant(self, x, alpha, seed):
        # the tail is summed in sorted order, so the estimate depends on
        # each row's values alone: bit for bit, up to the sign of a zero
        permuted = np.random.default_rng(seed).permuted(x, axis=-1)
        want = canonical_bytes(empirical_cvar(x, alpha))
        assert canonical_bytes(empirical_cvar(permuted, alpha)) == want
        assert canonical_bytes(empirical_cvar(permuted[::-1, ::-1], alpha)[::-1]) == want

    def test_single_seed_gaussian_consistency(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal(100_000)
        for alpha, tol in [(0.9, 0.03), (0.95, 0.05), (0.99, 0.15)]:
            est = empirical_cvar(draws, alpha)
            assert abs(est - gaussian_cvar_oracle(0.0, 1.0, alpha)) <= tol


@pytest.mark.parametrize("fn", [empirical_cvar])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
class TestNonFiniteRejected:
    # a -inf below a finite VaR leaves VaR and CVaR finite, so only a check
    # of the input catches it

    def test_vector(self, fn, bad, alpha):
        with pytest.raises(ValueError, match="finite"):
            fn(np.array([1.0, bad, 2.0, 3.0]), alpha)

    def test_one_batch_row(self, fn, bad, alpha):
        x = np.arange(12.0).reshape(3, 4)
        x[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fn(x, alpha)


class TestGaussianOracle:
    def test_alpha_zero_is_mean(self):
        assert gaussian_cvar_oracle(1.25, 3.0, 0.0) == 1.25

    def test_standard_levels(self):
        # frozen against an independent high precision evaluation
        assert gaussian_cvar_oracle(0.0, 1.0, 0.90) == pytest.approx(
            1.7549833193248680663, rel=1e-12
        )
        assert gaussian_cvar_oracle(0.0, 1.0, 0.95) == pytest.approx(
            2.0627128075074260193, rel=1e-12
        )
        assert gaussian_cvar_oracle(0.0, 1.0, 0.99) == pytest.approx(
            2.6652142203458048132, rel=1e-12
        )

    def test_location_scale(self):
        base = gaussian_cvar_oracle(0.0, 1.0, 0.95)
        shifted = gaussian_cvar_oracle(2.0, 3.0, 0.95)
        assert shifted == pytest.approx(2.0 + 3.0 * base, rel=1e-12)

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.0, 0.999, 64)
        vals = [gaussian_cvar_oracle(0.0, 1.0, a) for a in grid]
        assert np.all(np.diff(vals) > 0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            gaussian_cvar_oracle(0.0, -1.0, 0.9)

    @pytest.mark.parametrize("alpha", [0.0, 1e-12, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-9])
    @pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (1.25, 3.0), (-7.5, 0.1),
                                          (1e3, 42.0), (2.0, 0.0)])
    def test_bit_identical_to_scipy_stats_norm(self, mean, sd, alpha):
        # the closed form as scipy.stats.norm evaluates it, which the package
        # no longer imports
        want = mean + sd * stats.norm.pdf(stats.norm.ppf(alpha)) / (1.0 - alpha)
        assert gaussian_cvar_oracle(mean, sd, alpha).hex() == float(want).hex()

    def test_bit_identical_to_scipy_stats_norm_on_random_levels(self):
        rng = np.random.default_rng(29)
        alphas = np.concatenate([rng.uniform(0.0, 1.0, 200),
                                 1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 100)])
        for alpha in alphas:
            mean, sd = rng.normal(0.0, 10.0), rng.exponential(5.0)
            want = mean + sd * stats.norm.pdf(stats.norm.ppf(alpha)) / (1.0 - alpha)
            assert gaussian_cvar_oracle(mean, sd, alpha).hex() == float(want).hex()


def _neighbours(x: float, n: int) -> list[float]:
    """x and its n nearest floats on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestNdtri:
    """``risk._ndtri`` against ``scipy.special.ndtri``, which it ports."""

    EXP_M2 = 0.13533528323661269189
    # the median branch ends at exp(-2) on each side, and the tail switches
    # its polynomials at x = sqrt(-2 log p) = 8, i.e. p = exp(-32)
    EDGES = (EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5,
             5e-324, 2.2250738585072014e-308, 1e-300, 1.0 - 2.0 ** -53)

    @staticmethod
    def assert_identical(levels):
        got = np.array([_ndtri(float(p)) for p in levels])
        want = special.ndtri(np.asarray(levels, dtype=float))
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, [(levels[i], got[i], want[i]) for i in bad[:5]]

    def test_ends(self):
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        self.assert_identical([0.0, 1.0, 0.5, math.nextafter(0.0, 1.0),
                               math.nextafter(1.0, 0.0)])

    def test_branch_edges(self):
        levels = [p for edge in self.EDGES for p in _neighbours(edge, 64) if 0.0 <= p <= 1.0]
        self.assert_identical(levels)

    def test_subnormals(self):
        rng = np.random.default_rng(41)
        tiny = 2.2250738585072014e-308
        self.assert_identical(np.concatenate([
            rng.uniform(0.0, tiny, 1000), 5e-324 * np.arange(1, 1001)]))

    def test_random_levels(self):
        rng = np.random.default_rng(43)
        self.assert_identical(rng.uniform(0.0, 1.0, 100_000))

    def test_log_uniform_tails(self):
        rng = np.random.default_rng(47)
        self.assert_identical(np.concatenate([
            10.0 ** rng.uniform(-320.0, 0.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000)]))
