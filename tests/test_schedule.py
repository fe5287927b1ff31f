import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarsearch.schedule import RiskSchedule, inner_sample_size, update_risk_level


def test_worked_example():
    sched = RiskSchedule(alpha_current=0.5, alpha_target=0.99, prev_grad_norm=1.0)
    out = update_risk_level(sched, 0.5)
    assert out.alpha_current == 0.99 - 0.5 * (0.99 - 0.5)
    assert out.alpha_current == pytest.approx(0.745, rel=1e-15)


def test_first_observation_only_records():
    sched = RiskSchedule.start(0.0, 0.9)
    out = update_risk_level(sched, 7.0)
    assert out.alpha_current == 0.0
    assert out.prev_grad_norm == 7.0


def test_no_move_when_norm_grows():
    sched = RiskSchedule(alpha_current=0.3, alpha_target=0.9, prev_grad_norm=1.0)
    out = update_risk_level(sched, 2.0)
    assert out.alpha_current == 0.3
    assert out.prev_grad_norm == 2.0


def test_zero_norm_jumps_to_target():
    sched = RiskSchedule(alpha_current=0.2, alpha_target=0.95, prev_grad_norm=3.0)
    out = update_risk_level(sched, 0.0)
    assert out.alpha_current == 0.95


def test_zero_after_zero_stays_put():
    sched = RiskSchedule(alpha_current=0.5, alpha_target=0.9, prev_grad_norm=0.0)
    out = update_risk_level(sched, 0.0)
    assert out.alpha_current == 0.5


def test_gap_ratio_identity_on_halving():
    # norms 1, 1/2, 1/4, ... halve the distance to target exactly
    sched = RiskSchedule.start(0.0, 0.99)
    sched = update_risk_level(sched, 1.0)
    for k in range(1, 16):
        prev_gap = sched.gap
        sched = update_risk_level(sched, 2.0**-k)
        assert sched.gap == 0.5 * prev_gap
    assert sched.gap == 0.99 * 2.0**-15


def test_reaches_target_neighbourhood_in_twenty_steps():
    sched = RiskSchedule.start(0.0, 0.99)
    alphas = []
    norms = [2.0**-k for k in range(20)]
    for g in norms:
        sched = update_risk_level(sched, g)
        alphas.append(sched.alpha_current)
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))
    assert 0.99 - alphas[-1] <= 1e-4


@given(
    norms=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40),
    target=st.floats(0.1, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_monotone_and_bounded(norms, target):
    sched = RiskSchedule.start(0.0, target)
    last = 0.0
    for g in norms:
        sched = update_risk_level(sched, g)
        assert sched.alpha_current >= last
        assert 0.0 <= sched.alpha_current <= target
        last = sched.alpha_current


@given(
    prev=st.floats(1e-6, 1e6, allow_nan=False),
    ratio=st.floats(0.01, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_gap_contraction_matches_norm_ratio(prev, ratio):
    g = prev * ratio
    sched = RiskSchedule(alpha_current=0.2, alpha_target=0.9, prev_grad_norm=prev)
    out = update_risk_level(sched, g)
    assert out.gap == pytest.approx((g / prev) * sched.gap, rel=5e-16)


def test_rejects_bad_norms():
    sched = RiskSchedule.start(0.0, 0.9)
    with pytest.raises(ValueError):
        update_risk_level(sched, -1.0)
    with pytest.raises(ValueError):
        update_risk_level(sched, math.nan)
    with pytest.raises(ValueError):
        update_risk_level(sched, math.inf)


def test_state_validation():
    with pytest.raises(ValueError):
        RiskSchedule(alpha_current=0.95, alpha_target=0.9)
    with pytest.raises(ValueError):
        RiskSchedule(alpha_current=0.0, alpha_target=1.0)
    with pytest.raises(ValueError):
        RiskSchedule(alpha_current=-0.1, alpha_target=0.9)
    # a gap that agrees with neither the update's level nor start's gap
    with pytest.raises(ValueError):
        RiskSchedule(alpha_current=0.5, alpha_target=0.9, prev_grad_norm=1.0, gap=0.1)


class TestInnerSampleSize:
    def test_anchor_values(self):
        assert inner_sample_size(0.0, 30) == 30
        assert inner_sample_size(0.95, 30) == 600
        assert inner_sample_size(0.99, 50) == 5000
        assert inner_sample_size(0.5, 50) == 100

    def test_ceiling_applied(self):
        assert inner_sample_size(0.3, 10) == math.ceil(10 / 0.7)

    @given(
        alpha_pair=st.tuples(st.floats(0.0, 0.995), st.floats(0.0, 0.995)),
        eff=st.integers(2, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_alpha(self, alpha_pair, eff):
        lo, hi = sorted(alpha_pair)
        assert inner_sample_size(lo, eff) <= inner_sample_size(hi, eff)

    def test_effective_size_floor(self):
        with pytest.raises(ValueError):
            inner_sample_size(0.5, 1)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            inner_sample_size(1.0, 30)
        with pytest.raises(ValueError):
            inner_sample_size(-0.01, 30)


def test_numpy_float_inputs_accepted():
    out = update_risk_level(
        RiskSchedule(alpha_current=0.5, alpha_target=0.99, prev_grad_norm=1.0),
        np.float64(0.5),
    )
    assert out.alpha_current == pytest.approx(0.745, rel=1e-15)


@pytest.mark.parametrize("alpha_init,alpha_target,message", [
    (0.95, 0.9, "alpha_current must be finite and >= 0 and <= 0.9, got 0.95"),
    (10**400, 0.9, "alpha_current must be finite and >= 0 and <= 0.9, got inf"),
    (0.0, 10**400, "alpha_target must lie in [0, 1), got inf"),
], ids=["above_target", "int_beyond_float_current", "int_beyond_float_target"])
def test_start_refused_in_the_rules_words(alpha_init, alpha_target, message):
    # an int beyond the float range is refused as non-finite, never an
    # OverflowError
    with pytest.raises(ValueError) as err:
        RiskSchedule.start(alpha_init, alpha_target)
    assert str(err.value) == message
