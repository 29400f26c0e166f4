import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim import (
    BackoffParams,
    NetworkConfig,
    ParameterError,
    PolicyKind,
    RngStream,
    run,
)
from aoisim import policies
from aoisim.engine import _BLOCK, _FRAMES, _trajectory
from aoisim.policies import argmax_decide, contention_keys, exponents, minislots
import reference
from reference import AgeState, MarkovNetState, advance, frame_step, resolve

M = 10_000
# B = 0: a near-realistic key k lands in minislot max(floor(k), 0)
GRID = BackoffParams(alpha=2.0, b_offset=0, minislots_per_update=M)


def _ages(frame_age):
    ages = AgeState.initial(len(frame_age))
    ages.frame_age[:] = frame_age
    ages.clock_age[:] = frame_age
    return ages


def _wins(n, j):
    """Idealized ln-timer keys in which source j holds the unique minimum."""
    key = np.zeros(n)
    key[j] = -1.0
    return key


def _slots(values):
    """Near-realistic keys that land in these minislots of GRID."""
    return np.asarray(values, dtype=float) + 0.5


# ---------------------------------------------------------------------------
# Single frames
# ---------------------------------------------------------------------------

def test_step_idealized_age_recursion():
    ages = _ages([4, 7])
    delivered, tied, slot, duration = frame_step(ages, None, _wins(2, 1))
    assert ages.frame_age.tolist() == [5, 1]
    assert delivered == 1 and tied.tolist() == [False, True]
    # a unit frame; clock ages are not tracked
    assert slot is None and duration is None
    assert ages.clock_age.tolist() == [4.0, 7.0]


def test_step_idealized_max_weight_unique_argmax():
    ages = _ages([1, 2, 3])
    exponent = exponents("frame_age", ages.frame_age, np.ones(3), None)
    j = argmax_decide(exponent, RngStream(5))
    assert j == 2
    advance(ages, None, j)
    assert ages.frame_age.tolist() == [2, 3, 1]


def test_step_idealized_rejects_minislot_policy():
    # the near-realistic kind cannot run without its minislot grid
    config = NetworkConfig(2, (1.0, 1.0), 100, 5)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA)


def test_step_idealized_float_tie_collides():
    ages = _ages([2, 2])
    delivered, tied, slot, duration = frame_step(ages, None,
                                                 np.array([-3.5, -3.5]))
    assert (delivered, slot, duration) == (None, None, None)
    assert tied.tolist() == [True, True]
    assert ages.frame_age.tolist() == [3, 3]


def test_step_near_realistic_collision_and_duration():
    ages = _ages([2, 2, 2])
    delivered, tied, slot, duration = frame_step(ages, None, _slots([3, 7, 3]),
                                                 GRID)
    assert delivered is None and tied.tolist() == [True, False, True]
    assert slot == 3 and duration == pytest.approx(1 + 3 / 10_000)
    # collision: every age grows, nothing resets
    assert ages.frame_age.tolist() == [3, 3, 3]
    assert ages.clock_age.tolist() == pytest.approx([2 + duration] * 3)


def test_step_near_realistic_zero_timer_delivers_immediately():
    ages = _ages([1, 1])
    delivered, _, slot, duration = frame_step(ages, None, _slots([0, 5]), GRID)
    assert delivered == 0 and slot == 0
    assert duration == 1.0
    assert ages.clock_age[0] == pytest.approx(1.0)


def test_step_near_realistic_overhead_and_clock_ages():
    ages = _ages([4, 9])
    delivered, _, slot, duration = frame_step(ages, None, _slots([250, 260]),
                                              GRID)
    assert slot == 250 and duration == pytest.approx(1.025)
    assert delivered == 0
    # winner's information is one frame-duration old; loser aged by it
    assert ages.clock_age.tolist() == pytest.approx([1.025, 9 + 1.025])
    assert ages.frame_age.tolist() == [1, 10]


def test_step_near_realistic_rejects_continuous_policy():
    # contention of any kind needs its backoff parameters
    config = NetworkConfig(2, (1.0, 1.0), 100, 5)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.IDEALIZED_FRESH_CSMA)


# Ln-timers in grid units above the slot-0 edge -B ln(beta): a few slots on
# either side of it, so slot 0 saturates and nearby minislots often tie,
# plus slot boundaries, timers far below the edge, and -inf.
_GRID_UNITS = st.one_of(st.floats(-12.0, 4.0), st.integers(-12, 4).map(float),
                        st.floats(-1e300, -1e3), st.just(-math.inf))


@settings(max_examples=300, deadline=None)
@given(units=st.lists(_GRID_UNITS, min_size=1, max_size=10),
       beta=st.floats(1.001, 5.0), b_offset=st.sampled_from([0, 1, 3, 8, 250]))
def test_resolve_from_minimum_equals_discretized_keys(units, beta, b_offset):
    # resolving from the smallest key gives the winner, minislot and ties
    # of discretizing every timer, then argmin and a tie count
    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b_offset)
    log_z = np.array(units) * params.ln_beta - b_offset * params.ln_beta
    key = contention_keys(log_z, 0.0, params, discrete=True)
    slots = minislots(key, b_offset)
    j = int(slots.argmin())
    ties = slots == slots[j]
    expected = j if np.count_nonzero(ties) == 1 else None
    delivered, tied, slot = resolve(key, params)
    assert slot == slots[j]
    assert tied.tolist() == ties.tolist()
    assert delivered == expected
    assert policies.resolve(key, b_offset) == (expected, slots[j])


@settings(max_examples=300, deadline=None)
@given(units=st.lists(st.one_of(_GRID_UNITS, st.sampled_from([-2.0, 0.5])),
                      min_size=1, max_size=10),
       beta=st.floats(1.001, 5.0), b_offset=st.sampled_from([0, 1, 3, 8, 250]),
       discrete=st.booleans())
def test_runner_up_resolve_equals_tie_mask(units, beta, b_offset, discrete):
    # the kernel decides a collision from the minimum and the runner-up
    # alone; that is the mask of tied sources having two or more members
    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b_offset)
    key = np.array(units)
    delivered, slot = policies.resolve(key, b_offset if discrete else None)
    expected, tied, expected_slot = resolve(key, params if discrete else None)
    assert (delivered, slot) == (expected, expected_slot)
    assert key.tolist() == units  # the row is left as it was


# ---------------------------------------------------------------------------
# Markov frames
# ---------------------------------------------------------------------------

def _markov(x_true, x_est, aoii, q=0.0):
    return MarkovNetState(q=np.full(len(x_true), q), x_true=x_true,
                          x_est=x_est, aoii=aoii, stream=RngStream(3))


def test_step_markov_matched_stays_zero():
    markov = _markov([0, 0], [0, 0], [0, 0])
    frame_step(_ages([1, 1]), markov, _wins(2, 0))
    assert markov.aoii.tolist() == [0, 0]


def test_step_markov_delivery_zeroes_mismatch():
    markov = _markov([1, 0], [0, 0], [2, 0])
    frame_step(_ages([3, 3]), markov, _wins(2, 0))
    assert markov.aoii.tolist() == [0, 0]
    assert markov.x_est.tolist() == [1, 0]


def test_step_markov_sustained_mismatch_increments():
    markov = _markov([1, 0], [0, 0], [2, 0])
    frame_step(_ages([3, 3]), markov, _wins(2, 1))
    assert markov.aoii.tolist() == [3, 0]
    assert markov.x_est.tolist() == [0, 0]


def test_step_markov_collision_refreshes_nothing():
    markov = _markov([1, 1], [0, 0], [2, 4])
    frame_step(_ages([3, 3]), markov, _slots([6, 6]), GRID)
    assert markov.x_est.tolist() == [0, 0]
    assert markov.aoii.tolist() == [3, 5]


def test_step_markov_spontaneous_match_resets():
    # q = 1 flips the mismatched source back onto the estimate
    markov = _markov([1, 0], [0, 0], [5, 0], q=np.array([1.0, 0.0]))
    frame_step(_ages([2, 2]), markov, _wins(2, 1))
    assert markov.x_true.tolist() == [0, 0]
    assert markov.aoii.tolist() == [0, 0]


def test_step_markov_winner_delivers_post_flip_state():
    # the flip happens before the winner's update is generated
    markov = _markov([0, 0], [0, 0], [0, 0], q=1.0)
    frame_step(_ages([2, 2]), markov, _wins(2, 0))
    assert markov.x_true.tolist() == [1, 1]
    assert markov.x_est.tolist() == [1, 0]
    assert markov.aoii.tolist() == [0, 1]


def test_step_markov_frame_age_tracked_alongside():
    markov = _markov([0, 0], [0, 0], [0, 0])
    ages = _ages([4, 7])
    frame_step(ages, markov, _wins(2, 1))
    assert ages.frame_age.tolist() == [5, 1]


@settings(max_examples=25, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       frames=st.integers(1, 2600), seed=st.integers(0, 2**32 - 1),
       start=st.integers(0, 31))
def test_markov_trajectory_equals_per_frame_flips(q, frames, seed, start):
    # the block trajectory (XOR-accumulated flips, carried across blocks)
    # is what one uniforms(n) flip draw per frame gives
    n = len(q)
    x = np.array([(start >> i) & 1 for i in range(n)], dtype=bool)
    blocks = _trajectory(np.array(q), x, RngStream(seed, (0,)))
    per_frame = RngStream(seed, (0,))
    for t in range(frames):
        if t % _BLOCK == 0:
            block = next(blocks)
        x ^= per_frame.uniforms(n) < q
        assert block[t % _BLOCK].tolist() == x.tolist()


# ---------------------------------------------------------------------------
# Conservation and accounting invariants
# ---------------------------------------------------------------------------

def test_idealized_age_conservation_per_frame():
    # random minislot keys: deliveries and collisions both occur
    rng = np.random.default_rng(23)
    ages = AgeState.initial(5)
    outcomes = set()
    for _ in range(200):
        before = ages.frame_age.copy()
        j, *_ = frame_step(ages, None, _slots(rng.integers(0, 4, 5)), GRID)
        delta = int(ages.frame_age.sum() - before.sum())
        assert delta == (5 if j is None else 5 - before[j])
        assert ages.frame_age.min() >= 1
        outcomes.add(j is None)
    assert outcomes == {True, False}


def test_run_duration_accounting(run_fresh_near_realistic, run_max_weight):
    nr = run_fresh_near_realistic
    assert nr.elapsed_time == pytest.approx(
        nr.frame_count
        + nr.avg_overhead_minislots * nr.frame_count / 10_000, rel=1e-9)
    ideal = run_max_weight
    assert ideal.elapsed_time == ideal.frame_count
    assert ideal.collision_rate == 0.0
    assert ideal.avg_overhead_minislots == 0.0


def test_run_single_source_age_is_one():
    config = NetworkConfig(1, (1.0,), 5000, 3)
    result = run(config, PolicyKind.MAX_WEIGHT)
    assert result.normalized_weighted_avg_aoi == pytest.approx(1.0)


def test_run_round_robin_mean(run_max_weight):
    # symmetric max-weight settles into rotation: stationary mean (N+1)/2
    assert run_max_weight.normalized_weighted_avg_aoi == pytest.approx(
        5.5, rel=0.005)


def test_run_stationary_randomized_mean(run_stationary):
    # mean age of a source scheduled i.i.d. with probability 1/N is N
    assert run_stationary.normalized_weighted_avg_aoi == pytest.approx(
        10.0, rel=0.02)


def test_run_deterministic_for_equal_seeds():
    config = NetworkConfig(4, tuple([1.0] * 4), 2000, 99)
    params = BackoffParams(alpha=1.25, beta=1.15, b_offset=254)

    def once():
        return run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA, params)

    assert once() == once()


def test_run_deliveries_horizon_counts_deliveries():
    config = NetworkConfig(3, tuple([1.0] * 3), 500, 2)
    result = run(config, PolicyKind.MAX_WEIGHT, horizon_unit="deliveries")
    assert result.delivery_count == 500
    assert result.frame_count == 500  # idealized centralized: no waste


def test_run_deliveries_cap_raises_when_nothing_delivers():
    # beta = 1.01 drives every timer into minislot 0: permanent collision
    config = NetworkConfig(10, tuple([1.0] * 10), 200, 7)
    params = BackoffParams(alpha=1.1, beta=1.01, b_offset=260)
    with pytest.raises(RuntimeError):
        run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA, params,
            horizon_unit="deliveries", max_frames=400)


def test_run_rejects_aoii_policy_without_markov():
    config = NetworkConfig(3, tuple([1.0] * 3), 100, 2)
    params = BackoffParams(alpha=2.1)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.IDEALIZED_FRESH_CSMA_AOII, params)


def test_run_rejects_nan_markov_q():
    config = NetworkConfig(3, tuple([1.0] * 3), 100, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_AOII, markov_q=float("nan"))


def test_run_rejects_markov_q_of_wrong_length():
    config = NetworkConfig(3, tuple([1.0] * 3), 100, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_AOII, markov_q=[0.1, 0.2])


def test_run_max_frames_needs_deliveries_horizon():
    # a frames horizon is its own cap; max_frames would be ignored
    config = NetworkConfig(3, tuple([1.0] * 3), 200, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_WEIGHT, max_frames=10)


@pytest.mark.parametrize("cap", [0, -5])
def test_run_rejects_nonpositive_max_frames(cap):
    # a cap below one frame is a usage error, not a non-delivering run
    config = NetworkConfig(3, tuple([1.0] * 3), 200, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_WEIGHT, horizon_unit="deliveries",
            max_frames=cap)


def test_run_bad_horizon_unit():
    config = NetworkConfig(1, (1.0,), 10, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_WEIGHT, horizon_unit="hours")


def test_run_markov_aoii_zero_when_sources_never_move():
    config = NetworkConfig(3, tuple([1.0] * 3), 2000, 21)
    result = run(config, PolicyKind.MAX_WEIGHT, markov_q=0.0)
    assert result.normalized_avg_aoii == 0.0


def test_run_trace_emits_one_line_per_frame():
    config = NetworkConfig(2, (1.0, 1.0), 20, 13)
    params = BackoffParams(alpha=1.5, beta=1.2, b_offset=40)
    buf = io.StringIO()
    result = run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA, params, trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == result.frame_count == 20
    assert lines[0].startswith("frame=1 min_timer=")
    assert "duration=" in lines[0]


def test_near_realistic_reported_average_uses_clock_ages(run_fresh_near_realistic):
    nr = run_fresh_near_realistic
    frame_mean = float(np.mean(nr.per_source_avg_frame_aoi))
    clock_mean = float(np.mean(nr.per_source_avg_aoi))
    # wall-clock ages accumulate real frame durations (> 1), so they sit
    # slightly above the frame-count means
    assert clock_mean > frame_mean
    assert clock_mean == pytest.approx(frame_mean, rel=0.05)


# ---------------------------------------------------------------------------
# The block kernel against the reference frame loop
# ---------------------------------------------------------------------------

_KINDS = list(PolicyKind)
_AOII_KINDS = {PolicyKind.MAX_AOII, PolicyKind.IDEALIZED_FRESH_CSMA_AOII,
               PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII}


@st.composite
def _runs(draw):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 40))
    weights = draw(st.one_of(
        st.just((1.0,) * n),
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n).map(tuple)))
    # hypothesis favours the first of each choice, so delivering regimes
    # and moving sources come first; beta = 1.01 with B = 0 saturates
    # minislot 0 and q = 0 never moves a source
    params = None
    if "csma" in kind.value:
        params = BackoffParams(
            alpha=draw(st.sampled_from([2.1, 1.5, 1.05, 9.0])),
            beta=draw(st.sampled_from([1.1, 1.3, 1.01])),
            b_offset=draw(st.sampled_from([5, 250, 0])),
            delta_scale=draw(st.sampled_from([0.01, 1.0])))
    q_choices = [st.lists(st.sampled_from([0.05, 0.5, 1.0, 0.0]),
                          min_size=n, max_size=n),
                 st.just(0.0), st.just(1.0)]
    if kind not in _AOII_KINDS:
        q_choices.append(st.none())
    markov_q = draw(st.one_of(*q_choices))
    # frame counts on either side of a kernel block and of a draw block
    horizon = draw(st.sampled_from([_FRAMES - 1, _FRAMES, _FRAMES + 1,
                                    1023, 1024, 1025]))
    unit = draw(st.sampled_from(["frames", "deliveries"]))
    config = NetworkConfig(n, weights, horizon, draw(st.integers(0, 2**32 - 1)))
    kwargs = dict(prefix=draw(st.sampled_from([(), (1,)])), markov_q=markov_q,
                  horizon_unit=unit)
    if unit == "deliveries":
        kwargs["max_frames"] = 2 * horizon
    return config, kind, params, kwargs


def _outcome(run_fn, config, kind, params, kwargs, traced):
    buf = io.StringIO() if traced else None
    try:
        result = run_fn(config, kind, params, trace=buf, **kwargs)
    except RuntimeError:
        result = "frame cap"
    return result, buf.getvalue() if traced else None


@settings(max_examples=100, deadline=None)
@given(case=_runs())
def test_run_equals_reference_frame_loop(case):
    # field-equal results and byte-equal traces, traced or not
    expected, expected_trace = _outcome(reference.run, *case, traced=True)
    result, trace = _outcome(run, *case, traced=True)
    assert result == expected
    assert trace == expected_trace
    assert _outcome(run, *case, traced=False)[0] == expected
