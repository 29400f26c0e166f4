import math

import numpy as np
import pytest

from aoisim import (
    BackoffParams,
    NetworkConfig,
    ParameterError,
    PolicyKind,
    RngStream,
    run,
    scheduling_probabilities,
    stationary_randomized_probs,
)
from aoisim.engine import substreams
from aoisim.policies import (
    RULES,
    aoi_exponents,
    argmax_decide,
    exponents,
    key_of,
    minislots,
    resolve,
)
from reference import contention_keys


def _log_rates(frame_age, weights, alpha):
    return aoi_exponents(frame_age, weights) * math.log(alpha)


def _aoii(values):
    return exponents("aoii", None, None, values)


# ---------------------------------------------------------------------------
# Centralized rules
# ---------------------------------------------------------------------------

def test_max_weight_unique_argmax():
    s = RngStream(0)
    assert argmax_decide(exponents("frame_age", [2, 3, 5], np.ones(3), None),
                         s) == 2
    # 1*9 > 2*4 by hand
    assert argmax_decide(aoi_exponents([3, 2], np.array([1.0, 2.0])), s) == 0


def test_max_weight_tie_uniform():
    # 4*1 == 1*4: exact tie by construction
    s = RngStream(5)
    exponent = aoi_exponents([1, 2], np.array([4.0, 1.0]))
    picks = [argmax_decide(exponent, s) for _ in range(4000)]
    freq = picks.count(0) / len(picks)
    assert {0, 1} == set(picks)
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / len(picks))


def test_max_aoii_decide():
    s = RngStream(6)
    assert argmax_decide(_aoii([0, 0, 4]), s) == 2
    picks = [argmax_decide(_aoii([0, 0, 0]), s) for _ in range(6000)]
    for idx in (0, 1, 2):
        freq = picks.count(idx) / len(picks)
        assert abs(freq - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / len(picks))
    two_way = {argmax_decide(_aoii([2, 5, 5]), s) for _ in range(200)}
    assert two_way == {1, 2}


def test_exponents_per_signal():
    age, w = np.array([1, 2, 3]), np.array([1.0, 2.0, 0.5])
    np.testing.assert_array_equal(exponents("frame_age", age, w, None),
                                  [1.0, 8.0, 4.5])
    aoii = exponents("aoii", age, w, np.array([0, 4, 1]))
    assert aoii.dtype == float and aoii.tolist() == [0.0, 4.0, 1.0]
    assert exponents(None, age, w, None) == 1.0


def test_stationary_randomized_probs_anchors():
    assert stationary_randomized_probs([1.0]).tolist() == [1.0]
    np.testing.assert_allclose(stationary_randomized_probs([1, 1, 1, 1]),
                               [0.25] * 4)
    # sqrt weights [1, 2, 3] by hand
    np.testing.assert_allclose(stationary_randomized_probs([1, 4, 9]),
                               [1 / 6, 2 / 6, 3 / 6])


def test_stationary_randomized_probs_properties():
    w = np.array([0.3, 1.7, 2.2, 9.0])
    p = stationary_randomized_probs(w)
    assert abs(p.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(p, stationary_randomized_probs(17.0 * w))
    with pytest.raises(ParameterError):
        stationary_randomized_probs([1.0, -1.0])


# ---------------------------------------------------------------------------
# Closed-form win distribution
# ---------------------------------------------------------------------------

def test_scheduling_probabilities_anchors():
    np.testing.assert_allclose(
        scheduling_probabilities(5.0, aoi_exponents([1, 1], np.ones(2))),
        [0.5, 0.5])
    # rates [2, 16] by hand
    np.testing.assert_allclose(
        scheduling_probabilities(2.0, aoi_exponents([1, 2], np.ones(2))),
        [2 / 18, 16 / 18])
    # rates [3, 3, 81] by hand
    np.testing.assert_allclose(
        scheduling_probabilities(3.0, aoi_exponents([1, 1, 2], np.ones(3))),
        [3 / 87, 3 / 87, 81 / 87])


def test_scheduling_probabilities_sum_and_scale_invariance():
    aoii = np.array([0, 3, 7, 2])
    p = scheduling_probabilities(2.0, aoii)
    assert abs(p.sum() - 1.0) < 1e-12
    # adding a constant to every exponent rescales all rates by a common
    # factor; the distribution must not move
    np.testing.assert_allclose(p, scheduling_probabilities(2.0, aoii + 50),
                               atol=1e-12)


def test_scheduling_probabilities_extreme_exponents_stay_finite():
    p = scheduling_probabilities(9.0, aoi_exponents([1, 100], [5.0, 5.0]))
    assert np.all(np.isfinite(p))
    assert p[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Distributed contention
# ---------------------------------------------------------------------------

def _log_e(n, frames, seed):
    """ln E for `frames` contentions of n sources: one row per frame."""
    return np.column_stack([RngStream(seed, (i,)).log_exponentials(
        np.empty(frames)) for i in range(n)])


def test_idealized_csma_single_source_always_wins():
    config = NetworkConfig(1, (1.0,), 300, 3)
    result = run(config, PolicyKind.IDEALIZED_CSMA, BackoffParams(alpha=2.0))
    assert result.delivery_count == result.frame_count == 300


def test_idealized_csma_symmetric_winners_and_mean():
    n, frames = 4, 100_000
    params = BackoffParams(alpha=2.0)
    keys = contention_keys(_log_e(n, frames, 41), math.log(2.0), params,
                           discrete=False)
    freq = np.bincount(keys.argmin(axis=1), minlength=n) / frames
    sigma = math.sqrt(0.25 * 0.75 / frames)
    assert np.all(np.abs(freq - 0.25) <= 0.01)
    assert np.all(np.abs(freq - 0.25) <= 4 * sigma)
    # exponential mean 1/alpha
    assert np.all(np.abs(np.exp(keys).mean(axis=0) - 0.5) <= 0.01)


def _winner_frequencies(log_rate, params, n_trials, seed=101):
    keys = contention_keys(_log_e(len(log_rate), n_trials, seed), log_rate,
                           params, discrete=False)
    return np.bincount(keys.argmin(axis=1), minlength=len(log_rate)) / n_trials


def test_fresh_csma_symmetric_state_even_split():
    params = BackoffParams(alpha=3.0)
    freq = _winner_frequencies(_log_rates([1, 1], np.ones(2), 3.0),
                               params, 20_000)
    assert abs(freq[0] - 0.5) <= 3 * math.sqrt(0.25 / 20_000)


def test_fresh_csma_win_probabilities_match_closed_form():
    # rates [2, 16]: win probs [2/18, 16/18]
    params = BackoffParams(alpha=2.0)
    freq = _winner_frequencies(_log_rates([1, 2], np.ones(2), 2.0),
                               params, 50_000)
    p = 16 / 18
    assert abs(freq[1] - p) <= 3 * math.sqrt(p * (1 - p) / 50_000)


def test_fresh_csma_aoii_mode_win_probability():
    # rates [1, 1, 8]: source 3 wins with probability 8/10
    params = BackoffParams(alpha=2.0)
    freq = _winner_frequencies(_aoii([0, 0, 3]) * math.log(2.0), params, 50_000)
    assert abs(freq[2] - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / 50_000)


def test_fresh_csma_aoii_mode_requires_vector():
    # mismatch ages exist only with Markov sources
    config = NetworkConfig(2, (1.0, 1.0), 100, 1)
    with pytest.raises(ParameterError):
        run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII,
            BackoffParams(alpha=2.0))


def test_fresh_csma_near_realistic_returns_minislots():
    # the keys are log_beta(Z); their minislots max(B + floor(key), 0) are
    # the grid's, and the frame resolves to the smallest of them
    params = BackoffParams(alpha=1.5, beta=1.2, b_offset=50)
    log_e = _log_e(3, 1, 8)[0]
    log_rate = _log_rates([1, 2, 3], np.ones(3), 1.5)
    keys = contention_keys(log_e, log_rate, params, discrete=True)
    slots = minislots(keys, params.b_offset)
    np.testing.assert_array_equal(
        slots, [max(50 + math.floor((le - lr) / math.log(1.2)), 0)
                for le, lr in zip(log_e, log_rate)])
    assert np.all(slots >= 0)
    assert resolve(log_e - log_rate, params, discrete=True)[1] == slots.min()


def test_minislots_keep_keys_beyond_integer_range_in_order():
    # a key past the int64 range lands above a smaller one, with no
    # numpy cast warning (the suite turns RuntimeWarning into an error)
    slots = minislots(np.array([1e300, 5.0]), 250)
    assert slots.tolist() == [1e300, 255.0]
    assert slots[0] > slots[1]
    assert minislots(np.array([-math.inf, -300.0]), 250).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("beta,b_offset", [(1.1, 250), (1.0 + 2**-40, 0),
                                           (4.0, 3)])
def test_grid_map_in_place_equals_the_grid_rule(beta, b_offset):
    # -0.0, +-inf, keys beyond 2**53 and, at beta = 1 + 2**-40, ln Z of
    # -1e300 whose quotient overflows to -inf: the map written into out is
    # the allocating one bit for bit, and warns of nothing
    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b_offset)
    log_z = np.array([-0.0, 0.0, math.inf, -math.inf, 1e300, -1e300,
                      2.0**60, -2.0**60, 3.7, -3.7, -250.5])
    given = log_z.copy()
    keys = key_of(log_z, params, True)
    kept = keys.copy()
    expected = np.maximum(b_offset + np.floor(keys), 0.0)
    assert minislots(keys, b_offset).tobytes() == expected.tobytes()
    assert keys.tobytes() == kept.tobytes()
    assert log_z.tobytes() == given.tobytes()
    out = np.empty_like(log_z)
    assert key_of(log_z, params, True, out=out) is out
    assert out.tobytes() == kept.tobytes()
    assert minislots(out, b_offset, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert log_z.tobytes() == given.tobytes()
    assert key_of(log_z, params, False, out=out) is out
    assert out.tobytes() == key_of(log_z, params, False).tobytes()
    got = minislots(key_of(log_z, params, True, out=log_z), b_offset,
                    out=log_z)
    assert got is log_z and got.tobytes() == expected.tobytes()


def test_fresh_csma_huge_exponents_underflow_linear_but_not_log():
    # rate alpha**1600: the linear timer rounds to zero, the log key cannot
    params = BackoffParams(alpha=2.0)
    log_e = _log_e(2, 1, 9)[0]
    log_rate = _log_rates([1, 40], np.ones(2), 2.0)
    keys = contention_keys(log_e, log_rate, params, discrete=False)
    assert math.exp(log_e[1] - log_rate[1]) == 0.0
    assert np.all(np.isfinite(keys))
    assert keys[1] < keys[0]


def test_fresh_csma_timers_deterministic():
    params = BackoffParams(alpha=1.5)
    log_rate = _log_rates([2, 5], np.ones(2), 1.5)
    a = contention_keys(_log_e(2, 5, 10), log_rate, params, discrete=False)
    b = contention_keys(_log_e(2, 5, 10), log_rate, params, discrete=False)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Rule table and substreams
# ---------------------------------------------------------------------------

def _config(n=3):
    return NetworkConfig(n, tuple([1.0] * n), 100, 17)


def test_policy_dispatch_errors():
    # run dispatches through RULES, which holds every kind and nothing else
    assert set(RULES) == set(PolicyKind)
    with pytest.raises(ParameterError):
        run(_config(), "max_weight")


def test_policy_requires_params_for_csma_kinds():
    with pytest.raises(ParameterError):
        run(_config(), PolicyKind.IDEALIZED_CSMA)


def test_policy_kind_declarations():
    assert RULES[PolicyKind.MAX_WEIGHT] == ("argmax", "frame_age", False)
    assert RULES[PolicyKind.STATIONARY_RANDOMIZED].decide == "randomized"
    assert RULES[PolicyKind.STATIONARY_RANDOMIZED].signal is None
    assert RULES[PolicyKind.IDEALIZED_CSMA] == ("contention", None, False)
    assert not RULES[PolicyKind.IDEALIZED_FRESH_CSMA].discrete
    assert RULES[PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII].discrete
    assert RULES[PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII].signal == "aoii"
    assert RULES[PolicyKind.MAX_AOII] == ("argmax", "aoii", False)


def test_policy_same_stream_reproduces():
    params = BackoffParams(alpha=1.5)
    a = run(_config(), PolicyKind.IDEALIZED_FRESH_CSMA, params, prefix=(3,))
    b = run(_config(), PolicyKind.IDEALIZED_FRESH_CSMA, params, prefix=(3,))
    assert a == b
    c = run(_config(), PolicyKind.IDEALIZED_FRESH_CSMA, params, prefix=(4,))
    assert c != a


def test_policy_streams_isolated_by_kind():
    _, _, fresh = substreams(17, (), PolicyKind.IDEALIZED_FRESH_CSMA, 3)
    _, _, plain = substreams(17, (), PolicyKind.IDEALIZED_CSMA, 3)
    assert fresh[0].path == (1, 3, 1) and plain[0].path == (1, 2, 1)
    assert (fresh[0].log_exponentials(np.empty(4)).tolist()
            != plain[0].log_exponentials(np.empty(4)).tolist())


def test_substream_layout():
    engine, decision, sources = substreams(5, (2,), PolicyKind.MAX_AOII, 4)
    assert (engine.path, decision.path, sources) == ((2, 0), (2, 1, 5, 0), [])
    engine, _, sources = substreams(5, (), PolicyKind.IDEALIZED_CSMA, 2)
    assert engine.path == (0,)
    assert [s.path for s in sources] == [(1, 2, 1), (1, 2, 2)]
