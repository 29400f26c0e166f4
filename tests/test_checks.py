"""Fast passes over the randomized verifiers; the acceptance suite runs
them at their full trial counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aoisim import BackoffParams, ParameterError, checks
from aoisim.checks import (
    CHECKS,
    check_distinct_timer_bound,
    check_drift_dominance,
    check_idle_time_bound,
    check_max_aoii_match,
    check_max_weight_match,
    check_winner_distribution,
)
from aoisim.policies import minislots
from reference import contention_keys


def test_checks_registry_ids():
    assert sorted(CHECKS) == ["lemma1", "lemma2", "thm1", "thm3", "thm4", "thm5"]


def test_max_weight_match_small():
    result = check_max_weight_match(trials=300)
    assert result.ok and result.worst_margin >= 0.0


def test_max_weight_match_fails_below_threshold():
    # alpha = 2 cannot guarantee a 0.9 mass at n = 10
    result = check_max_weight_match(trials=300, alpha=2.0)
    assert not result.ok
    assert "FAIL" in result.summary()


def test_max_aoii_match_small():
    assert check_max_aoii_match(trials=300).ok


def test_winner_distribution_small():
    assert check_winner_distribution(trials=6, samples=20_000).ok


def test_drift_dominance_small():
    assert check_drift_dominance(trials=500).ok


def test_distinct_timer_bound_small():
    assert check_distinct_timer_bound(samples=20_000).ok


def test_idle_time_bound_small():
    result = check_idle_time_bound(trials=4, samples=20_000)
    assert result.ok
    assert "PASS" in result.summary()


@pytest.mark.parametrize("check", [check_max_weight_match,
                                   check_max_aoii_match,
                                   check_drift_dominance])
def test_checks_reject_fewer_than_two_sources(check):
    # one source has no argmax set to match and no drift to compare
    for n in (1, 0):
        with pytest.raises(ParameterError, match="n must be >= 2"):
            check(trials=10, n=n)


def test_idle_time_bound_needs_one_source():
    # a lone source always wins, so its idle time is still bounded
    with pytest.raises(ParameterError, match="n must be >= 1"):
        check_idle_time_bound(trials=2, samples=1000, n=0)
    assert check_idle_time_bound(trials=2, samples=1000, n=1).ok


def test_checks_deterministic():
    a = check_drift_dominance(trials=200, seed=5)
    b = check_drift_dominance(trials=200, seed=5)
    assert a == b


def test_block_checks_cover_every_state(monkeypatch):
    whole = check_max_aoii_match(trials=300, alpha=20.0, seed=3)
    monkeypatch.setattr(checks, "_BLOCK", 64)
    assert checks._blocks(300) == [64, 64, 64, 64, 44]
    # one draw per block, so the blocks concatenate to the same states
    assert check_max_aoii_match(trials=300, alpha=20.0, seed=3) == whole
    assert check_max_weight_match(trials=300).ok
    assert check_drift_dominance(trials=300).ok


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 10).flatmap(lambda n: arrays(
    float, st.tuples(st.just(n), st.integers(1, 12)),
    elements=st.integers(-2, 2).map(float))))
def test_win_counts_give_each_column_to_its_first_minimum(x):
    # small integers tie often, and a tied column goes to its first
    # minimum as argmin's does
    n = len(x)
    expected = np.bincount(np.argmin(x, axis=0), minlength=n)
    assert checks._win_counts(x).tolist() == expected.tolist()
    equal = np.full((n, x.shape[1]), 3.0)
    assert checks._win_counts(equal).tolist() == [x.shape[1]] + [0] * (n - 1)


# Ln-timers in grid units above the slot-0 edge -B ln(beta): near the
# edge, on slot boundaries, far below and far above it, and -inf.
_GRID_UNITS = st.one_of(st.floats(-12.0, 4.0), st.integers(-12, 4).map(float),
                        st.floats(-1e300, -1e3), st.floats(1e3, 1e12),
                        st.just(-math.inf))


@settings(max_examples=300, deadline=None)
@given(units=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=8),
                    elements=_GRID_UNITS),
       beta=st.floats(1.001, 5.0), b_offset=st.sampled_from([0, 1, 3, 8, 250]))
def test_discretizing_the_minimum_equals_the_minimum_slot(units, beta, b_offset):
    # the grid map is monotone, so the idle-time check may discretize the
    # column minimum alone
    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b_offset)
    log_z = (units - b_offset) * params.ln_beta
    def slots(log_z):
        return minislots(contention_keys(log_z, 0.0, params, discrete=True),
                         b_offset)
    assert np.array_equal(slots(log_z.min(axis=0)), slots(log_z).min(axis=0))
