import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cvarsearch.shaping import ShapeConfig, _logistic, sample_quantile_threshold, shape


class TestThreshold:
    def test_worked_example(self):
        assert sample_quantile_threshold(np.arange(1.0, 11.0), 0.1) == 9.0

    def test_rho_one_keeps_everything(self):
        assert sample_quantile_threshold(np.array([4.0, 2.0]), 1.0) == 2.0

    def test_singleton(self):
        assert sample_quantile_threshold(np.array([5.0]), 0.3) == 5.0

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=57)
        assert sample_quantile_threshold(x, 0.25) == sample_quantile_threshold(
            np.sort(x), 0.25
        )

    @given(
        scores=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
        rho=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_order_statistic(self, scores, rho):
        import math

        x = np.asarray(scores)
        gamma = sample_quantile_threshold(x, rho)
        # dual route: full sort here versus partial selection inside
        j = max(1, math.ceil((1.0 - rho) * len(x)))
        assert gamma == np.sort(x)[j - 1]

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            sample_quantile_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            sample_quantile_threshold(np.array([1.0]), 1.5)


class TestShape:
    def test_half_at_threshold(self):
        cfg = ShapeConfig(s_o=1e5, rho=0.1)
        assert shape(4.2, 4.2, cfg) == 0.5

    def test_logistic_value(self):
        cfg = ShapeConfig(s_o=1.0, rho=0.5)
        assert shape(np.log(3.0), 0.0, cfg) == pytest.approx(0.75, rel=1e-12)

    def test_saturation_without_warnings(self):
        cfg = ShapeConfig(s_o=1e5, rho=0.1)
        with np.errstate(over="raise", under="ignore"):
            hi = shape(1.0, 0.0, cfg)
            lo = shape(-1.0, 0.0, cfg)
        assert hi == 1.0
        assert lo == 0.0

    def test_monotone_in_score(self):
        cfg = ShapeConfig(s_o=2.0, rho=0.5)
        scores = np.linspace(-3.0, 3.0, 101)
        vals = np.array([shape(s, 0.0, cfg) for s in scores])
        assert np.all(np.diff(vals) >= 0)

    def test_elite_fraction_flagged(self):
        cfg = ShapeConfig(s_o=1e5, rho=0.1)
        scores = np.random.default_rng(9).normal(size=1000)
        gamma = sample_quantile_threshold(scores, cfg.rho)
        flagged = sum(shape(s, gamma, cfg) >= 0.5 for s in scores)
        assert 99 <= flagged <= 101

    @given(
        scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=50),
        rho=st.floats(0.0, 1.0, exclude_min=True),
        s_o=st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_candidate_weighs_half(self, scores, rho, s_o):
        # the threshold is one of the scores, so the loop's weights sum to
        # at least 0.5 and never all vanish; scores far apart may overflow
        # the logistic's argument to +-inf, which it saturates to 1 or 0
        x = np.asarray(scores)
        cfg = ShapeConfig(s_o, rho)
        with np.errstate(over="ignore"):
            w = shape(x, sample_quantile_threshold(x, rho), cfg)
        assert 0.5 in w
        assert w.sum() >= 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShapeConfig(s_o=0.0, rho=0.1)
        with pytest.raises(ValueError):
            ShapeConfig(s_o=np.inf, rho=0.1)
        with pytest.raises(ValueError):
            ShapeConfig(s_o=1.0, rho=0.0)


class TestLogisticMatchesExpit:
    """``shape`` computes ``scipy.special.expit`` bit for bit."""

    @staticmethod
    def edges() -> np.ndarray:
        # 1 + exp(-t) rounds to 1 from about 36.7, exp(-t) overflows below
        # about -709.78, and exp(t) underflows to 0 below about -745.13
        centres = [0.0, 36.7368005696771, 709.782712893384, 745.1332191019411,
                   *np.arange(37.0, 41.0), 710.0, 745.0]
        out = []
        for c in centres:
            for sign in (1.0, -1.0):
                t = sign * c
                lo = hi = t
                out.append(t)
                for _ in range(32):
                    lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                    out += [lo, hi]
        return np.array(out)

    @staticmethod
    def assert_identical(got, t):
        want = special.expit(t)
        bad = np.flatnonzero(np.asarray(got).view(np.int64) != want.view(np.int64))
        assert bad.size == 0, [(t[i], got[i], want[i]) for i in bad[:5]]

    def test_scalar_logistic(self):
        rng = np.random.default_rng(53)
        t = np.concatenate([rng.normal(0.0, 20.0, 50_000), rng.uniform(-800.0, 800.0, 50_000),
                            np.linspace(-41.0, 41.0, 20_001), self.edges(),
                            [np.inf, -np.inf, 0.0, -0.0]])
        self.assert_identical(np.array([_logistic(float(x)) for x in t]), t)

    def test_shape_vector(self):
        # unit slope and gamma 0 make shape's argument the score itself
        rng = np.random.default_rng(59)
        t = np.concatenate([rng.normal(0.0, 20.0, 50_000), rng.uniform(-800.0, 800.0, 50_000),
                            self.edges(), [-0.0, 1e308, -1e308]])
        self.assert_identical(shape(t, 0.0, ShapeConfig(s_o=1.0, rho=0.5)), t)
