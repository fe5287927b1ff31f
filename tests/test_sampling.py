import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarsearch.sampling import (
    ProjectionBox,
    SamplingParams,
    _project_raw_natural,
    expected_sufficient_statistics,
    sample,
    sufficient_statistics,
    to_natural,
)


def params(mean, var):
    return SamplingParams(mean=np.asarray(mean, float), variance=np.asarray(var, float))


def symmetric_box(dim, mean_bound, var_hi, var_lo=1e-6):
    """Box [-mean_bound, mean_bound] x [var_lo, var_hi] in every coordinate."""
    return ProjectionBox(
        mean_lo=np.full(dim, -float(mean_bound)),
        mean_hi=np.full(dim, float(mean_bound)),
        var_lo=np.full(dim, float(var_lo)),
        var_hi=np.full(dim, float(var_hi)),
    )


# keep magnitudes in normal float range; the relative round-trip contract
# has nothing to say about subnormal underflow
finite_means = st.floats(-1e6, 1e6, allow_nan=False).filter(
    lambda m: m == 0.0 or abs(m) > 1e-250
)
positive_vars = st.floats(1e-8, 1e8, allow_nan=False)


class TestValidation:
    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            params([0.0], [0.0])
        with pytest.raises(ValueError):
            params([0.0], [-1.0])

    def test_shapes_must_match(self):
        with pytest.raises(ValueError):
            params([0.0, 1.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            params([np.nan], [1.0])
        with pytest.raises(ValueError):
            params([0.0], [np.inf])

    def test_box_ordering(self):
        with pytest.raises(ValueError):
            ProjectionBox(
                mean_lo=np.array([1.0]), mean_hi=np.array([0.0]),
                var_lo=np.array([1e-6]), var_hi=np.array([1.0]),
            )
        with pytest.raises(ValueError):
            ProjectionBox(
                mean_lo=np.array([0.0]), mean_hi=np.array([1.0]),
                var_lo=np.array([0.0]), var_hi=np.array([1.0]),
            )


class TestStatistics:
    def test_sufficient_statistics_single(self):
        np.testing.assert_array_equal(
            sufficient_statistics(np.array([2.0, 3.0])),
            np.array([2.0, 3.0, 4.0, 9.0]),
        )

    def test_sufficient_statistics_batch(self):
        xs = np.array([[1.0, 2.0], [0.5, -1.0]])
        out = sufficient_statistics(xs)
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out[1], np.array([0.5, -1.0, 0.25, 1.0]))

    def test_sufficient_statistics_rejects_nan(self):
        with pytest.raises(ValueError):
            sufficient_statistics(np.array([np.nan]))

    def test_expected_statistics(self):
        p = params([1.0, -2.0], [4.0, 5.0])
        np.testing.assert_array_equal(
            expected_sufficient_statistics(p), np.array([1.0, -2.0, 5.0, 9.0])
        )

    def test_expected_statistics_matches_sample_mean(self):
        # large-sample check within 4 standard errors, fixed seed
        p = params([1.5, -3.0], [2.0, 9.0])
        xs = sample(p, 1_000_000, np.random.default_rng(11))
        stats = sufficient_statistics(xs)
        se = stats.std(axis=0, ddof=1) / np.sqrt(stats.shape[0])
        diff = np.abs(stats.mean(axis=0) - expected_sufficient_statistics(p))
        assert np.all(diff <= 4 * se)


class TestSample:
    def test_bit_identical_given_stream(self):
        p = params([0.0, 2.0], [1.0, 3.0])
        a = sample(p, 64, np.random.default_rng(5))
        b = sample(p, 64, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        p = params([2.0], [4.0])
        xs = sample(p, 100_000, np.random.default_rng(0))
        assert abs(xs.mean() - 2.0) < 0.05
        assert abs(xs.var(ddof=1) - 4.0) < 0.05 * 4.0

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(params([0.0], [1.0]), 0, np.random.default_rng(0))


class TestNaturalView:
    def test_known_values(self):
        np.testing.assert_array_equal(to_natural(params([2.0], [4.0])),
                                      np.array([0.5, -0.125]))

    @given(
        mean=st.lists(finite_means, min_size=1, max_size=6),
        var=st.lists(positive_vars, min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, mean, var):
        d = min(len(mean), len(var))
        p = params(mean[:d], var[:d])
        # a box wide enough that no point the strategies draw is clamped
        wide = symmetric_box(d, mean_bound=1e7, var_hi=1e9, var_lo=1e-9)
        q = _project_raw_natural(to_natural(p), wide)
        np.testing.assert_allclose(q.mean, p.mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(q.variance, p.variance, rtol=1e-12)

    def test_vector_layout(self):
        nat = to_natural(params([2.0, 4.0], [4.0, 2.0]))
        np.testing.assert_array_equal(nat, np.array([0.5, 2.0, -0.125, -0.25]))


BOX = ProjectionBox(
    mean_lo=np.array([-1.0, -1.0]),
    mean_hi=np.array([1.0, 1.0]),
    var_lo=np.array([1e-4, 1e-4]),
    var_hi=np.array([4.0, 4.0]),
)


def project(p, box=BOX):
    return _project_raw_natural(to_natural(p), box)


class TestProject:
    def test_clamps_variance_floor(self):
        out = project(params([0.0, 0.0], [1e-9, 1.0]))
        assert out.variance[0] == pytest.approx(1e-4, rel=1e-12)
        assert out.variance[1] == pytest.approx(1.0, rel=1e-12)

    def test_clamps_mean(self):
        out = project(params([5.0, -3.0], [1.0, 1.0]))
        assert out.mean[0] == pytest.approx(1.0, rel=1e-12)
        assert out.mean[1] == pytest.approx(-1.0, rel=1e-12)

    def test_identity_inside_box_exact_on_dyadic(self):
        # powers of two survive both coordinate conversions untouched
        p = params([0.5, -0.25], [0.25, 2.0])
        out = project(p)
        np.testing.assert_array_equal(out.mean, p.mean)
        np.testing.assert_array_equal(out.variance, p.variance)

    @given(
        m1=st.floats(-3.0, 3.0, allow_nan=False),
        m2=st.floats(-3.0, 3.0, allow_nan=False),
        v1=st.floats(1e-6, 10.0, allow_nan=False),
        v2=st.floats(1e-6, 10.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, m1, m2, v1, v2):
        once = to_natural(project(params([m1, m2], [v1, v2])))
        twice = to_natural(_project_raw_natural(once, BOX))
        np.testing.assert_allclose(twice, once, rtol=5e-16, atol=0.0)

    @given(
        m1=st.floats(-100.0, 100.0, allow_nan=False),
        v1=st.floats(1e-9, 1e3, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_containment(self, m1, v1):
        out = project(params([m1, 0.0], [v1, 1.0]))
        # conversion back from natural coordinates costs at most an ulp
        slack = 1e-15
        assert np.all(out.mean >= BOX.mean_lo - slack)
        assert np.all(out.mean <= BOX.mean_hi + slack)
        assert np.all(out.variance >= BOX.var_lo * (1 - 1e-14))
        assert np.all(out.variance <= BOX.var_hi * (1 + 1e-14))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(params([0.0], [1.0]))
