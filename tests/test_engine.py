import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoisim import (
    BackoffParams,
    NetworkConfig,
    ParameterError,
    PolicyKind,
    RngStream,
    run,
)
from aoisim import engine, policies
from aoisim.engine import _BLOCK, _FRAMES, _clock_ages, _trajectory
from aoisim.policies import argmax_decide, exponents, key_of, minislots
import reference
from reference import (
    AgeState,
    MarkovNetState,
    advance,
    contention_keys,
    frame_step,
    log_timers,
    resolve,
    stream_with_zero_at,
)

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
    expected = j if np.count_nonzero(ties) == 1 else -1
    delivered, tied, slot = resolve(key, params)
    assert slot == slots[j]
    assert tied.tolist() == ties.tolist()
    # the reference reports a collision as None, the library as -1
    assert (-1 if delivered is None else delivered) == expected
    assert policies.resolve(log_z, params, True) == (expected, slots[j])


def _ulps(x, k):
    """x moved k floats up (k < 0: down)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


# Ln-timers: typical values, slot-0 edges at small B, -inf, values far
# below any edge; the rows repeat a few of them exactly or a few floats
# apart, which the key map may merge.
_LOG_Z = st.one_of(st.floats(-50.0, 3.6), st.integers(-12, 4).map(float),
                   st.just(-math.inf), st.floats(-1e300, -1e3))


@st.composite
def _log_z_row(draw):
    pool = draw(st.lists(_LOG_Z, min_size=1, max_size=3))
    near = st.builds(_ulps, st.sampled_from(pool), st.integers(-3, 3))
    return draw(st.lists(st.one_of(near, _LOG_Z), min_size=1, max_size=10))


@settings(max_examples=500, deadline=None)
@given(units=_log_z_row(),
       beta=st.one_of(st.floats(1.001, 5.0),
                      st.sampled_from([1.0 + 2**-40, 20.0, 1e6])),
       b_offset=st.sampled_from([0, 1, 3, 250, 2**52]),
       discrete=st.booleans())
def test_runner_up_resolve_equals_tie_mask(units, beta, b_offset, discrete):
    # the kernel resolves ln-timers from the masked minimum and runner-up
    # alone, mapping only those two to keys; that is the mask of sources
    # tied at the minimum key having two or more members
    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b_offset)
    log_z = np.array(units)
    key = contention_keys(log_z, 0.0, params, discrete)
    expected, tied, expected_slot = resolve(key, params if discrete else None)
    # the reference reports a collision as None, the library as -1
    assert policies.resolve(log_z, params, discrete) == (
        -1 if expected is None else expected, expected_slot)
    # the row is left as it was, bit for bit
    assert log_z.tobytes() == np.array(units).tobytes()


def test_resolve_sees_ln_timers_the_key_map_merges():
    # the idealized key is ln Z itself, so it merges nothing: adjacent
    # ln-timers stay apart and the smaller delivers
    params = BackoffParams(alpha=2.0)
    log_z = np.array([1e-3, _ulps(1e-3, 1)])
    assert key_of(log_z, params, False) is log_z
    assert policies.resolve(log_z, params, False) == (0, None)
    # on the grid the same two share a key's minislot and collide
    assert policies.resolve(log_z, params, True) == (-1, 250)
    # a lone source delivers at any timer, -inf included
    for z in (-math.inf, 0.0):
        assert policies.resolve(np.array([z]), GRID, True) == (0, 0)


def test_key_beyond_float_range_is_minus_inf():
    # at the smallest beta a far-negative ln-timer's key rounds to -inf,
    # quietly, on an array as on a float, and collides in minislot 0
    params = BackoffParams(alpha=2.0, beta=1.0 + 2**-40, b_offset=0)
    log_z = np.array([-1.7e296, -1.65e296])
    assert key_of(log_z, params, True).tolist() == [-math.inf] * 2
    assert key_of(log_z.item(0), params, True) == -math.inf
    assert key_of(log_z[0], params, True) == -math.inf
    assert policies.resolve(log_z, params, True) == (-1, 0)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(st.integers(0, 3).map(float),
                                 st.floats(0.0, 1e3), st.just(math.inf)),
                       min_size=1, max_size=8),
       seed=st.integers(0, 2**32))
def test_argmax_decide_equals_tie_mask_rule(values, seed):
    # the masked runner-up rule picks the source the tie mask picks and
    # takes the same draws from the stream: one on a tie, none otherwise
    exponent = np.array(values)
    kernel, oracle = RngStream(seed), RngStream(seed)
    assert (argmax_decide(exponent, kernel)
            == reference.argmax_decide(exponent, oracle))
    assert kernel.uniform() == oracle.uniform()
    assert exponent.tobytes() == np.array(values).tobytes()


# The edge of BackoffParams' domain: beta = 1 + 2**-40, and the largest
# timer draw E = 53 ln 2 at rate 1, which makes the largest key.
_EDGE = BackoffParams(alpha=2.0, beta=1.0 + 2**-40, b_offset=2**52)
_LN_E_MAX = math.log(53 * math.log(2))


def _edge_key(log_e, log_rate):
    return float(contention_keys(log_e, log_rate, _EDGE, discrete=True))


_KEY_MAX = _edge_key(_LN_E_MAX, 0.0)  # about 3.96e12


# Keys around the slot-0 edge and slot boundaries at small B, -inf, keys
# far below the edge, and keys at the edge of the domain: the largest key
# and the one below it, keys at the smallest beta, and -inf keys from
# infinite log rates.
_ROW_KEYS = st.one_of(
    st.floats(-12.0, 4.0), st.integers(-12, 4).map(float), st.just(-math.inf),
    st.floats(-1e300, -1e3),
    st.sampled_from([_KEY_MAX, _KEY_MAX - 1, _edge_key(_LN_E_MAX, math.inf)]),
    st.builds(_edge_key, st.floats(-40.0, _LN_E_MAX), st.floats(0.0, 50.0)))


@st.composite
def _key_rows(draw):
    """A (rows, sources) block whose cells often repeat a few values, so
    rows tie at the minimum."""
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(_ROW_KEYS, min_size=1, max_size=3))
    cell = st.one_of(st.sampled_from(pool), _ROW_KEYS)
    return np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                  min_size=rows, max_size=rows)))


@settings(max_examples=400, deadline=None)
@given(keys=_key_rows(),
       b_offset=st.sampled_from([None, 0, 1, 3, 250, 2**52]))
def test_resolve_rows_equals_resolve_on_every_row(keys, b_offset):
    # the one-pass form gives resolve's winner (-1 after a collision in
    # both) and minislot on every row, the minislots as exact Python
    # integers up to the domain's edge, so the durations and the overhead
    # formed from them are resolve's too.  ln(beta) = 1 makes every key
    # its own ln-timer.
    discrete = b_offset is not None
    params = BackoffParams(alpha=2.0, beta=math.e, b_offset=b_offset or 0)
    assert np.array_equal(key_of(keys, params, discrete), keys)
    won, slots = policies.resolve_rows(keys, params, discrete)
    expected = [policies.resolve(row, params, discrete) for row in keys]
    assert won.tolist() == [j for j, _ in expected]
    if b_offset is None:
        assert slots is None
        return
    got, want = slots.tolist(), [s for _, s in expected]
    assert got == want
    assert all(type(s) is int for s in got)
    for m in (M, 2**55 + 1):
        assert [1.0 + s / m for s in got] == [1.0 + s / m for s in want]
    assert sum(got) == sum(want)


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
    # is what one uniforms(n) flip draw per frame gives; each block's row 0
    # is the state entering it
    n = len(q)
    x = np.array([(start >> i) & 1 for i in range(n)], dtype=bool)
    blocks = _trajectory(np.array(q), x, RngStream(seed, (0,)))
    per_frame = RngStream(seed, (0,))
    for t in range(frames):
        if t % _BLOCK == 0:
            block = next(blocks)
            assert block[0].tolist() == x.tolist()
        x ^= per_frame.uniforms(n) < q
        assert block[t % _BLOCK + 1].tolist() == x.tolist()


@settings(max_examples=20, deadline=None)
@given(q=st.lists(st.sampled_from([0.05, 1.0, 0.0]), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_run_lengths_equal_a_per_frame_count(q, seed):
    # the run state's run lengths of equal true states, computed once per
    # refill, are those a frame-by-frame count gives over three refills.
    # Source 0 never flips, so its run enters the second and third refills
    # and passes 2 * _BLOCK frames.
    q = np.array([0.0] + q)
    n = len(q)
    state = engine._RunState(NetworkConfig(n, (1.0,) * n, 3 * _BLOCK, seed),
                             PolicyKind.MAX_WEIGHT, None, (), q)
    run, x_before = np.ones(n, dtype=int), np.zeros(n, dtype=bool)
    for _ in range(3):
        state.step(_FRAMES, 3 * _BLOCK, None)
        x, length = state.x_block, state.length
        assert x[0].tolist() == x_before.tolist()
        assert length[0].tolist() == run.tolist()
        for r in range(1, _BLOCK + 1):
            run = np.where(x[r] == x[r - 1], run + 1, 1)
            assert length[r].tolist() == run.tolist(), r
        x_before = x[-1].copy()
        while state.frames % _BLOCK:
            state.step(_FRAMES, 3 * _BLOCK, None)
    assert run[0] == 3 * _BLOCK + 1


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


def _clock_ages_by_frame(age, integral, durations, won):
    """The three per-frame additions the block form replaces."""
    age, integral = age.copy(), integral.copy()
    for duration, j in zip(durations.tolist(), won):
        integral += age * duration
        age += duration
        if j >= 0:
            age[j] = duration
    return age, integral


def _assert_block_clock_ages(age, integral, durations, won):
    expected = _clock_ages_by_frame(age, integral, durations, won)
    got = _clock_ages(age, integral, durations, won)
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()


def test_block_clock_ages_restart_at_first_and_last_rows():
    # source 0 restarts at the first row and source 2 three times, the
    # last at the block's last row
    durations = np.array([1.0 + s / 7 for s in (3, 0, 5, 1, 6, 2, 4)])
    _assert_block_clock_ages(np.array([3.5, 1.25, 7.0]),
                             np.array([0.1, 2.0, 9.0]), durations,
                             [0, 2, -1, 2, -1, 1, 2])


@settings(max_examples=200, deadline=None)
# spans up to a whole refill, past the engine's _CLOCK_FRAMES passes
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, _BLOCK))
def test_block_clock_ages_equal_per_frame_additions(data, n, k):
    # bit for bit, wherever the block restarts its sources
    def draw_list(elements, size):
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    slots = draw_list(st.integers(0, 3 * M), k)
    durations = np.array([1.0 + s / M for s in slots])
    _assert_block_clock_ages(np.array(draw_list(st.floats(1.0, 1e4), n)),
                             np.array(draw_list(st.floats(0.0, 1e9), n)),
                             durations, draw_list(st.integers(-1, n - 1), k))


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


@pytest.mark.parametrize("cap", [0, -5, 2.5, "10"])
def test_run_rejects_nonpositive_max_frames(cap):
    # a cap below one frame, or one that is not a whole number of frames,
    # is a usage error, not a non-delivering run
    config = NetworkConfig(3, tuple([1.0] * 3), 200, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_WEIGHT, horizon_unit="deliveries",
            max_frames=cap)


@pytest.mark.parametrize("prefix", [(0.9,), ("0",), (1, -1)])
def test_run_rejects_a_prefix_that_is_not_whole_stream_ids(prefix):
    # a prefix of (0.9,) once ran on replication 0's streams
    config = NetworkConfig(3, tuple([1.0] * 3), 50, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.IDEALIZED_FRESH_CSMA, BackoffParams(alpha=2.0),
            prefix=prefix)


def test_run_bad_horizon_unit():
    config = NetworkConfig(1, (1.0,), 10, 2)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.MAX_WEIGHT, horizon_unit="hours")


@pytest.mark.parametrize("kind", ["max_weight", None, []])
def test_run_rejects_a_kind_that_is_not_a_policy_kind(kind):
    # an unhashable value too, which a lookup in RULES would not name
    config = NetworkConfig(2, (1.0, 1.0), 10, 2)
    with pytest.raises(ParameterError, match="unknown policy kind"):
        run(config, kind)


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
            b_offset=draw(st.sampled_from([5, 250, 0])))
    q_choices = [st.lists(st.sampled_from([0.05, 0.5, 1.0, 0.0]),
                          min_size=n, max_size=n),
                 st.just(0.0), st.just(1.0)]
    if kind not in _AOII_KINDS:
        q_choices.append(st.none())
    markov_q = draw(st.one_of(*q_choices))
    # frame counts on either side of a kernel block and of one and two
    # draw blocks, which carry estimates and run lengths across refills
    horizon = draw(st.sampled_from([_FRAMES - 1, _FRAMES, _FRAMES + 1,
                                    1023, 1024, 1025, 2047, 2048, 2049]))
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
# min_timer is exp(ln Z): frame 20 prints a subnormal timer
@example(case=(NetworkConfig(
    35, (1.0,) * 8 + (5.0, 5.0, 6.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 7.0, 8.0,
                      8.0, 4.527588621607691) + (1.0,) * 9 + (5.0,) * 5,
    63, 35), PolicyKind.IDEALIZED_FRESH_CSMA,
    BackoffParams(alpha=1.5, beta=1.1, b_offset=5),
    dict(prefix=(), markov_q=0.0, horizon_unit="frames")))
def test_run_equals_reference_frame_loop(case):
    # field-equal results and byte-equal traces, traced or not
    expected, expected_trace = _outcome(reference.run, *case, traced=True)
    result, trace = _outcome(run, *case, traced=True)
    assert result == expected
    assert trace == expected_trace
    assert _outcome(run, *case, traced=False)[0] == expected


@settings(max_examples=100, deadline=None)
@given(case=_runs())
def test_run_results_keep_their_invariants(case):
    # what every result states about itself, whatever the kind: frames
    # split into deliveries and whole collisions, frame ages are at least
    # 1, idealized and centralized frames last one unit and never collide,
    # near-realistic frames last 1 + D/M, and a rerun is the same result
    _, kind, params, _ = case
    result, _ = _outcome(run, *case, traced=False)
    if result == "frame cap":
        return
    frames = result.frame_count
    collisions = result.collision_rate * frames
    assert collisions == pytest.approx(round(collisions), abs=1e-6)
    assert frames == result.delivery_count + round(collisions)
    assert min(result.per_source_avg_frame_aoi) >= 1
    if policies.RULES[kind].discrete:
        overhead = result.avg_overhead_minislots * frames
        assert result.elapsed_time == pytest.approx(
            frames + overhead / params.minislots_per_update, rel=1e-9)
    else:
        assert result.collision_rate == 0.0
        assert result.elapsed_time == frames
    assert _outcome(run, *case, traced=False)[0] == result


# Deterministic cases of the one-pass collision runs.  At seed 44 these
# four sources collide in about a third of the frames: frames 231-232
# form a run that ends inside its block, and frames 1019-1030 one that
# crosses the 1024-frame draw block.  At seed 5 the 100-frame cap falls
# inside a run that starts after deliveries in the last block.  At seed
# 93 frames 81-83 collide and frame 84 makes the 78th delivery, the last
# one the horizon needs.  The two refill cases deliver on the last frame
# of each of their first two refills, frames 1024 and 2048 of the trace,
# whose estimates the next refill takes over.  The settle cases hold a
# collision run that reaches its block's end, so a settle block follows:
# at B = 0 every frame collides across two refills; at seed 172 the
# settle block from frame 65 on makes the 40th delivery; at seed 1 the
# 300-frame cap cuts a settle block short of its refill's end; at seed 0
# an AoII settle block delivers a source whose estimate the blocks after
# it decide from.
_MIXED = BackoffParams(alpha=1.1, beta=1.3, b_offset=30)
_HEAVY = BackoffParams(alpha=1.1, beta=1.1, b_offset=45)
_SATURATED = BackoffParams(alpha=2.0, beta=1.1, b_offset=0)
_AOII_GRID = BackoffParams(alpha=2.1, beta=1.3, b_offset=8)
_NR = PolicyKind.NEAR_REALISTIC_FRESH_CSMA
_NR_AOII = PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII
_CASES = {
    "run ends mid-block": (NetworkConfig(4, (1.0,) * 4, 300, 44), _NR,
                           _MIXED, {}),
    "run crosses a draw block": (NetworkConfig(4, (1.0,) * 4, 1100, 44), _NR,
                                 _MIXED, {}),
    "cap inside a run": (NetworkConfig(4, (1.0,) * 4, 500, 5), _NR, _HEAVY,
                         dict(horizon_unit="deliveries", max_frames=100)),
    "target delivery ends a run": (NetworkConfig(4, (1.0,) * 4, 78, 93), _NR,
                                   _HEAVY, dict(horizon_unit="deliveries")),
    "near-realistic AoII": (NetworkConfig(5, (1.0,) * 5, 1100, 3), _NR_AOII,
                            _AOII_GRID, dict(markov_q=0.1)),
    "AoII delivery ends a refill": (NetworkConfig(5, (1.0,) * 5, 2100, 3),
                                    _NR_AOII, _AOII_GRID, dict(markov_q=0.1)),
    "max-weight Markov delivery ends a refill": (
        NetworkConfig(5, (1.0,) * 5, 2100, 3), PolicyKind.MAX_WEIGHT, None,
        dict(markov_q=0.05)),
    # the largest B of the domain, with one collision run at seed 1
    "B at the domain edge": (NetworkConfig(3, (1.0,) * 3, 300, 1), _NR,
                             BackoffParams(alpha=1.5, beta=1.3,
                                           b_offset=2**52), {}),
    "saturated run crosses the refill": (NetworkConfig(4, (1.0,) * 4, 2100, 1),
                                         _NR, _SATURATED, {}),
    "settle block ends in the deliveries target": (
        NetworkConfig(4, (1.0,) * 4, 40, 172), _NR_AOII, _AOII_GRID,
        dict(markov_q=0.1, horizon_unit="deliveries")),
    "frames cap inside a settle block": (
        NetworkConfig(4, (1.0,) * 4, 500, 1), _NR, _HEAVY,
        dict(horizon_unit="deliveries", max_frames=300)),
    "AoII settle block sets the next block's estimate": (
        NetworkConfig(5, (1.0,) * 5, 600, 0), _NR_AOII, _AOII_GRID,
        dict(markov_q=0.1)),
}


def _collided(trace):
    return [" collided=1 " in line for line in trace.splitlines()]


def _passes(collided, cap):
    """The resolve_rows passes of a run whose frames collide as listed,
    cap being its frame cap, by the block rules: (first frame, rows,
    whether the pass is a settle block) each.

    A block starts where the one before ended and stops at the refill's
    end, at the cap and, unless it is a settle block, after _FRAMES
    frames.  Its walk settles the rows from the second of two colliding
    frames in a row to the block's end in one pass and goes on after the
    run's delivery.  A run that reaches the block's end makes the next
    block a settle block: one pass over all its rows, the block ending at
    its first delivery.
    """
    passes, start, settle = [], 0, False
    while start < len(collided):
        end = min(cap, start - start % _BLOCK + _BLOCK,
                  start + (_BLOCK if settle else _FRAMES))
        f = start
        while f < min(end, len(collided)):
            if settle or f and collided[f - 1] and collided[f]:
                passes.append((f, end - f, settle))
                f = next((g for g in range(f, end) if not collided[g]), end)
                if f == end:
                    settle = True
                    break
                if settle:
                    settle = False
                    f += 1
                    break
            f += 1
        start = f
    return passes


def _counting_passes(monkeypatch):
    """The row counts of every resolve_rows pass the engine makes."""
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return policies.resolve_rows(*args)

    monkeypatch.setattr("aoisim.engine.resolve_rows", counting)
    return calls


@pytest.mark.parametrize("name", _CASES)
def test_collision_runs_equal_reference_frame_loop(name, monkeypatch):
    config, kind, params, kwargs = case = _CASES[name]
    expected, expected_trace = _outcome(reference.run, *case, traced=True)
    calls = _counting_passes(monkeypatch)
    result, trace = _outcome(run, *case, traced=True)
    assert result == expected
    assert trace == expected_trace
    collided = _collided(trace)
    # the engine's passes are the ones the block rules make
    cap = (config.horizon_frames if kwargs.get("horizon_unit") != "deliveries"
           else kwargs.get("max_frames", 100 * config.horizon_frames))
    passes = _passes(collided, cap)
    assert calls == [rows for _, rows, _ in passes]
    assert _outcome(run, *case, traced=False)[0] == expected
    # each case holds the collision run it is named for
    ends = [f for f in range(2, len(collided))
            if collided[f - 2] and collided[f - 1] and not collided[f]]
    settled = [(f, rows) for f, rows, settle in passes if settle]
    delivered = [next((g for g in range(f, min(f + rows, len(collided)))
                       if not collided[g]), None) for f, rows in settled]
    if name == "run ends mid-block":
        assert any(f % _FRAMES for f in ends)
    elif name == "run crosses a draw block":
        assert all(collided[_BLOCK - 2:_BLOCK + 2])
    elif name == "cap inside a run":
        assert result == "frame cap" and len(collided) == 100
        last_block = collided[_FRAMES:]
        assert last_block[-3:] == [True] * 3 and not all(last_block)
    elif name == "target delivery ends a run":
        assert result.delivery_count == 78 and len(collided) == 84
        assert collided[-4:] == [True, True, True, False]
    elif name == "near-realistic AoII":
        assert 0.2 < result.collision_rate < 0.9 and ends
    elif "ends a refill" in name:
        assert not collided[_BLOCK - 1] and not collided[2 * _BLOCK - 1]
        assert result.normalized_avg_aoii > 0
    elif name == "saturated run crosses the refill":
        assert result.collision_rate == 1.0
        assert settled == [(_FRAMES, _BLOCK - _FRAMES), (_BLOCK, _BLOCK),
                           (2 * _BLOCK, 52)]
    elif name == "settle block ends in the deliveries target":
        assert result.delivery_count == 40
        assert delivered[-1] == len(collided) - 1 > settled[-1][0]
    elif name == "frames cap inside a settle block":
        assert result == "frame cap" and len(collided) == 300
        f, rows = settled[-1]
        assert f + rows == 300 < f - f % _BLOCK + _BLOCK
        assert delivered[-1] is None
    elif name == "AoII settle block sets the next block's estimate":
        assert result.normalized_avg_aoii > 0
        assert any(d is not None and d + 1 < len(collided) for d in delivered)
    else:
        assert ends


def test_a_collision_run_is_settled_in_one_pass(monkeypatch):
    # at B = 0 every timer below one time unit lands in minislot 0, so all
    # four sources collide in every frame.  The run's first frame resolves
    # alone; from the second on, the rest of the first block takes one
    # resolve_rows pass, which reaches its end, so each settle block after
    # it takes one pass to its refill's end or the horizon
    calls = _counting_passes(monkeypatch)
    for frames, passes in (
            (10 * _FRAMES, [_FRAMES - 1, 9 * _FRAMES]),
            (2100, [_FRAMES - 1, _BLOCK - _FRAMES, _BLOCK, 2100 - 2 * _BLOCK])):
        calls.clear()
        result = run(NetworkConfig(4, (1.0,) * 4, frames, 1), _NR, _SATURATED)
        assert result.collision_rate == 1.0
        assert calls == passes


@pytest.mark.parametrize("m", [10_000, 2**53, 2**53 + 1, 3**40])
def test_frame_durations_are_exact_for_any_whole_m(m):
    # a frame lasts 1 + D/M with D/M correctly rounded, as the reference
    # forms it frame by frame, up to BackoffParams' largest M.  The run's
    # one array division would round an M that no float holds before
    # dividing, so such an M must be refused before any run
    if m > 2**53:
        with pytest.raises(ParameterError, match=r"\[1, 2\*\*53\]"):
            BackoffParams(alpha=1.5, beta=1.1, minislots_per_update=m)
        return
    params = BackoffParams(alpha=1.5, beta=1.1, minislots_per_update=m)
    case = (NetworkConfig(4, (1.0,) * 4, 300, 7), _NR, params, {})
    expected = _outcome(reference.run, *case, traced=True)
    assert _outcome(run, *case, traced=True) == expected


@pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.value)
def test_deliveries_horizon_stops_at_the_target_delivery(kind):
    # 100 deliveries end inside the second block, where the walk stops at
    # the target delivery; the last frame traced is that delivery
    rule = policies.RULES[kind]
    params = (BackoffParams(alpha=1.2, beta=1.1, b_offset=255)
              if rule.decide == "contention" else None)
    kwargs = dict(horizon_unit="deliveries",
                  markov_q=0.05 if rule.signal == "aoii" else None)
    case = (NetworkConfig(5, (1.0,) * 5, 100, 3), kind, params, kwargs)
    expected, expected_trace = _outcome(reference.run, *case, traced=True)
    result, trace = _outcome(run, *case, traced=True)
    assert result == expected
    assert trace == expected_trace
    assert _outcome(run, *case, traced=False)[0] == expected
    assert result.delivery_count == 100
    assert _FRAMES < result.frame_count < 2 * _FRAMES
    assert not _collided(trace)[-1]


@pytest.mark.parametrize("kind", [PolicyKind.IDEALIZED_FRESH_CSMA, _NR],
                         ids=lambda kind: kind.value)
def test_a_zero_uniform_is_a_timer_that_wins_its_frame(monkeypatch, kind):
    # source 2 draws its timer for frame 100 from a zero uniform: E = 0,
    # so ln E = -inf wins the frame, in minislot 0 on the grid, and
    # nothing is drawn again
    frame, source = 100, 2
    plain = engine.substreams

    def crafted(seed, prefix, kind, n_sources):
        engine_stream, decision, sources = plain(seed, prefix, kind, n_sources)
        sources[source] = stream_with_zero_at(frame - 1)
        return engine_stream, decision, sources
    monkeypatch.setattr(engine, "substreams", crafted)
    monkeypatch.setattr(reference, "substreams", crafted)
    case = (NetworkConfig(4, (1.0,) * 4, 300, 7), kind,
            BackoffParams(alpha=1.5, beta=1.1, b_offset=250), {})
    expected, expected_trace = _outcome(reference.run, *case, traced=True)
    result, trace = _outcome(run, *case, traced=True)
    assert result == expected
    assert trace == expected_trace
    assert trace.splitlines()[frame - 1].startswith(
        f"frame={frame} min_timer=0 winners={source} collided=0 "
        f"delivered={source} ")


def test_timer_block_holds_the_bits_the_checks_draw():
    # one exp(1) draw: each source's first _BLOCK ln E in the run state's
    # block are the vector log1p mapping of its timer stream's uniforms,
    # as the sampled checks' rows take them
    config = NetworkConfig(5, (1.0,) * 5, _BLOCK, 3)
    state = engine._RunState(config, _NR, BackoffParams(alpha=1.5), (2,), None)
    state.step(_FRAMES, _BLOCK, None)
    _, _, sources = engine.substreams(3, (2,), _NR, 5)
    for i, stream in enumerate(sources):
        assert (state.log_e[i].tobytes()
                == log_timers(stream, [0.0], _BLOCK)[0].tobytes()), i
