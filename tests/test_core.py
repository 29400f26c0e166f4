import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aoisim
from aoisim import (
    BackoffParams,
    NetworkConfig,
    ParameterError,
    RngStream,
    drift_alpha_threshold,
    match_alpha_threshold,
    recommended_defaults,
    stationary_randomized_probs,
    validate_params,
)
from aoisim.analysis import log_sum_exp
from aoisim.policies import minislots
from reference import AgeState, contention_keys, frame_step

UNIT_DELTA = BackoffParams(alpha=2.0, delta_scale=1.0)


class ScriptedGenerator:
    """Stands in for a stream's generator where a test pins the uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)

    def standard_exponential(self, n, method):
        # numpy's inverse-CDF method maps -log1p(-u) over the uniforms
        assert method == "inv"
        return np.array([-math.log1p(-u) for u in self.random(n)])


def _scripted(values):
    stream = RngStream(0)
    stream._gen = ScriptedGenerator(values)
    return stream


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------

def test_stream_reproducible_across_instances():
    a = RngStream(123456789, (4, 2))
    b = RngStream(123456789, (4, 2))
    seq_a = ([a.uniform() for _ in range(10)] + list(a.uniforms(5))
             + list(a.exponential_sequence(3)))
    seq_b = ([b.uniform() for _ in range(10)] + list(b.uniforms(5))
             + list(b.exponential_sequence(3)))
    assert seq_a == seq_b


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_uniforms_shape_rows_equal_successive_calls(k, n, seed):
    block_stream, row_stream = RngStream(seed, (2,)), RngStream(seed, (2,))
    block = block_stream.uniforms((k, n))
    rows = np.array([row_stream.uniforms(n) for _ in range(k)])
    assert block.shape == (k, n)
    np.testing.assert_array_equal(block, rows)
    # and both streams continue from the same place
    np.testing.assert_array_equal(block_stream.uniforms(3),
                                  row_stream.uniforms(3))


def test_stream_children_are_independent_of_parent_position():
    parent = RngStream(7)
    child_before = RngStream(7, (3,))
    parent.uniform()
    child_after = RngStream(7, (3,))
    assert child_before.uniform() == child_after.uniform()


def test_stream_distinct_substreams_differ():
    assert RngStream(7, (0,)).uniform() != RngStream(7, (1,)).uniform()


def test_stream_rejects_bad_seed_and_path():
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(1 << 64)
    with pytest.raises(ParameterError):
        RngStream(3, (-2,))


def test_unit_exponential_positive():
    assert np.all(RngStream(1).exponential_sequence(1000) > 0)
    assert np.all(RngStream(1).unit_exponentials(1000) > 0)


def test_exponential_sequence_is_the_scalar_inverse_cdf():
    # each term is -log1p(-u) through math.log1p, whatever the split
    u = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((31, 5)))).random(50)
    expected = [-math.log1p(-x) for x in u]
    stream = RngStream(31, (5,))
    got = np.concatenate([stream.exponential_sequence(k) for k in (1, 7, 42)])
    assert got.tolist() == expected


def test_exponential_sequence_skips_zero_uniforms():
    values = [0.5, 0.0, 0.25, 0.0, 0.0, 0.75, 0.125, 0.0, 0.375, 0.0, 0.625]
    expected = [-math.log1p(-x) for x in values if x != 0.0]
    stream = _scripted(values)
    got = list(stream.exponential_sequence(3)) + list(stream.exponential_sequence(2))
    assert got == expected[:5]
    # the generator stops right after the last term it used
    assert stream._gen.values == [0.0, 0.625]


@pytest.mark.parametrize("seed,path,n", [(31, (5,), 50), (7, (2,), 100_000),
                                         (0, (), 1), (9, (1, 2), 0)])
def test_unit_exponentials_are_numpy_log1p_of_the_stream_uniforms(seed, path, n):
    u = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, *path)))).random(n)
    got = RngStream(seed, path).unit_exponentials(n)
    assert got.tobytes() == (-np.log1p(-u)).tobytes()


def test_unit_exponentials_redraw_zero_uniforms():
    # both zeros are redrawn from the next two values; the second redraw
    # is zero again, so it takes one more
    values = [0.5, 0.0, 0.25, 0.0, 0.75, 0.0, 0.125, 0.375]
    stream = _scripted(values)
    got = stream.unit_exponentials(4)
    assert got.tobytes() == (-np.log1p(-np.array([0.5, 0.75, 0.25, 0.125]))
                             ).tobytes()
    assert stream._gen.values == [0.375]


def test_jump_ahead_places_generators_in_the_bulk_sequence():
    ref = RngStream(17, (3,)).uniforms(60)
    stream = RngStream(17, (3,))
    offsets = (0, 7, 41)
    for gen, k in zip(stream.jump_ahead(offsets, 50), offsets):
        assert gen.random(5).tobytes() == ref[k:k + 5].tobytes()
    assert stream.uniforms(10).tobytes() == ref[50:].tobytes()
    # a negative total moves the stream back
    stream.jump_ahead((), -60)
    assert stream.uniforms(60).tobytes() == ref.tobytes()


@pytest.mark.parametrize("method,args,count", [
    ("uniforms", (-1,), "-1"),
    ("uniforms", ((3, -2),), "(3, -2)"),
    ("unit_exponentials", (-1,), "-1"),
    ("exponential_sequence", (-4,), "-4"),
    ("integers", (5, (2, -1)), "(2, -1)"),
])
def test_draws_reject_negative_counts(method, args, count):
    # a ParameterError naming the count, not numpy's bare ValueError
    with pytest.raises(ParameterError, match=re.escape(
            f"{method}() needs non-negative counts, got {count}")):
        getattr(RngStream(3), method)(*args)


# ---------------------------------------------------------------------------
# Exponential timers in log domain
# ---------------------------------------------------------------------------

def test_sample_exponential_rate_one_identity():
    key = contention_keys(np.log([0.693]), 0.0, UNIT_DELTA, discrete=False)
    assert math.exp(key[0]) == pytest.approx(0.693)


def test_sample_exponential_rate_two():
    # E / rate by hand: 0.693 / 2
    key = contention_keys(np.log([0.693]), math.log(2.0), UNIT_DELTA,
                          discrete=False)
    assert math.exp(key[0]) == pytest.approx(0.3465, abs=1e-10)


def test_sample_exponential_monte_carlo_mean():
    # Monte Carlo oracle on the unit exponential
    s = RngStream(2024)
    mean = float(s.unit_exponentials(1_000_000).mean())
    assert 0.997 <= mean <= 1.003
    assert 0.997 <= float(s.exponential_sequence(1_000_000).mean()) <= 1.003


def test_sample_exponential_log_matches_linear():
    e = RngStream(50).exponential_sequence(50)
    keys = contention_keys(np.log(e), 1.5, UNIT_DELTA, discrete=False)
    np.testing.assert_allclose(keys, np.log(e * math.exp(-1.5)), atol=1e-12)


def test_sample_exponential_rejects_non_finite_rate():
    # rates are alpha**e: a non-finite alpha never reaches the timers
    with pytest.raises(ParameterError):
        BackoffParams(alpha=math.inf)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=math.nan)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, beta=math.inf)


# ---------------------------------------------------------------------------
# Timer discretization
# ---------------------------------------------------------------------------

def _minislots(log_z, params):
    """The minislots of ln-timers: their near-realistic keys on the grid."""
    key = contention_keys(np.asarray(log_z, dtype=float), 0.0, params,
                          discrete=True)
    return minislots(key, params.b_offset)


def _slot(params, z):
    return int(_minislots([math.log(z)], params)[0])


def test_discretize_timer_anchor_values():
    assert _slot(BackoffParams(2.0, beta=2.0, b_offset=5), 1.0) == 5
    # 2 + floor(log2 8) by hand
    assert _slot(BackoffParams(2.0, beta=2.0, b_offset=2), 8.0) == 5
    # floor(log2 0.001) = -10, max(3 - 10, 0)
    assert _slot(BackoffParams(2.0, beta=2.0, b_offset=3), 0.001) == 0


def test_discretize_timer_log_form_agrees():
    # minislot D > 0 holds the timers with beta**(D - B) <= z < beta**(D - B + 1)
    params = BackoffParams(2.0, beta=1.3, b_offset=40)
    z = RngStream(9).exponential_sequence(200)
    slots = _minislots(np.log(z), params)
    for zi, d in zip(z, slots):
        if d > 0:
            assert 1.3 ** (d - 40) <= zi * (1 + 1e-12)
        assert zi < 1.3 ** (d - 40 + 1) * (1 + 1e-12)


def test_discretize_monotone_in_z_and_b():
    zs = np.sort(RngStream(31).exponential_sequence(100) * 10)
    for beta in (1.05, 1.5, 2.0):
        for b in (0, 10, 100):
            params = BackoffParams(2.0, beta=beta, b_offset=b)
            timers = _minislots(np.log(zs), params)
            assert np.all(np.diff(timers) >= 0)
    grid = np.array([_minislots(
        np.log(zs), BackoffParams(2.0, beta=1.2, b_offset=b))
        for b in (0, 5, 50, 500)])
    assert np.all(np.diff(grid, axis=0) >= 0)


def test_discretize_beta_monotonicity_splits_at_z_one():
    # coarsening the grid pulls log_beta(z) toward zero: timers above the
    # offset (z > 1) sink toward it, timers below (z < 1) rise toward it
    for z, sign in ((8.0, -1), (150.0, -1), (0.9, +1), (0.5, +1), (0.01, +1)):
        prev = None
        for beta in (1.05, 1.2, 1.5, 2.0, 5.0):
            cur = _slot(BackoffParams(2.0, beta=beta, b_offset=30), z)
            if prev is not None:
                assert sign * (cur - prev) >= 0
            prev = cur


def test_discretize_log_timers_matches_scalar():
    params = BackoffParams(2.0, beta=1.4, b_offset=25)
    log_z = np.array([-80.0, -3.2, 0.0, 2.7])
    vec = _minislots(log_z, params)
    assert vec.dtype == np.float64
    for lz, d in zip(log_z, vec):
        assert max(25 + math.floor(lz / math.log(1.4)), 0) == d


# ---------------------------------------------------------------------------
# Log-domain equivalence
# ---------------------------------------------------------------------------

def test_argmin_agrees_between_log_and_linear_domain():
    s = RngStream(77)
    for _ in range(200):
        log_rates = np.array([s.uniform() * 20 for _ in range(6)])
        e = s.unit_exponentials(6)
        linear = e / np.exp(log_rates)
        logs = np.log(e) - log_rates
        assert int(np.argmin(linear)) == int(np.argmin(logs))


def test_log_sum_exp_stable_and_correct():
    vals = np.array([1.0, 2.0, 3.0])
    assert log_sum_exp(vals) == pytest.approx(math.log(np.exp(vals).sum()))
    big = np.array([1000.0, 1001.0])
    assert log_sum_exp(big) == pytest.approx(1001.0 + math.log1p(math.exp(-1.0)))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_network_config_validation():
    NetworkConfig(2, (1.0, 2.5), 10, 0)
    with pytest.raises(ParameterError):
        NetworkConfig(0, (), 10, 0)
    with pytest.raises(ParameterError):
        NetworkConfig(2, (1.0,), 10, 0)
    with pytest.raises(ParameterError):
        NetworkConfig(2, (1.0, -1.0), 10, 0)
    with pytest.raises(ParameterError):
        NetworkConfig(2, (1.0, 1.0), 0, 0)
    with pytest.raises(ParameterError):
        NetworkConfig(2, (1.0, 1.0), 10, -5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_network_config_rejects_non_finite_weights(bad):
    # an infinite weight used to run and report an infinite normalized AoI
    with pytest.raises(ParameterError):
        NetworkConfig(2, (bad, 1.0), 10, 0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_weight_vector_rules_reject_non_finite_weights(bad):
    # checking only w <= 0 let nan and inf through: the drift threshold
    # read nan or inf and the randomized rule drew from nan probabilities.
    # Both take one weight vector or, as lemma2 does, a block of them.
    for weights in ([1.0, bad], [[1.0, 2.0], [2.0, bad]]):
        with pytest.raises(ParameterError):
            drift_alpha_threshold(weights)
        with pytest.raises(ParameterError):
            stationary_randomized_probs(weights)
    assert drift_alpha_threshold([[1.0, 1.0], [1.0, 4.0]]).tolist() == [2.0,
                                                                         3.0]


def test_theorem_exact_mode_requires_integer_weights():
    NetworkConfig(2, (1.0, 4.0), 10, 0, theorem_exact=True)
    with pytest.raises(ParameterError):
        NetworkConfig(2, (1.0, math.sqrt(2)), 10, 0, theorem_exact=True)


def test_backoff_params_validation():
    with pytest.raises(ParameterError):
        BackoffParams(alpha=1.0)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, beta=0.9)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, b_offset=-1)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, minislots_per_update=0)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, delta_scale=0.0)


def test_backoff_params_reject_values_outside_the_domain():
    # B = 2**53 + 3 once made resolve return minislot -1; both errors
    # name the bound
    with pytest.raises(ParameterError, match=r"2\*\*52"):
        BackoffParams(alpha=1.5, beta=1.3, b_offset=2**53 + 3)
    with pytest.raises(ParameterError, match=r"1 \+ 2\*\*-40"):
        BackoffParams(alpha=1.5, beta=1.0 + 2**-41)


def test_backoff_params_logs_leave_repr_eq_and_hash_alone():
    # tests/regression_pins.json stores the repr; the logs taken at
    # construction are attributes, not fields
    params = BackoffParams(alpha=1.5, beta=1.2, b_offset=7,
                           minislots_per_update=100, delta_scale=0.5)
    assert repr(params) == ("BackoffParams(alpha=1.5, beta=1.2, b_offset=7, "
                            "minislots_per_update=100, delta_scale=0.5)")
    assert [f.name for f in dataclasses.fields(params)] == [
        "alpha", "beta", "b_offset", "minislots_per_update", "delta_scale"]
    assert params == BackoffParams(1.5, 1.2, 7, 100, 0.5)
    assert hash(params) == hash((1.5, 1.2, 7, 100, 0.5))
    assert params != BackoffParams(1.5, 1.2, 7, 100, 0.25)
    assert (params.ln_alpha, params.ln_beta, params.ln_delta_scale) == (
        math.log(1.5), math.log(1.2), math.log(0.5))
    moved = dataclasses.replace(params, alpha=3.0, beta=2.0, delta_scale=1.0)
    assert (moved.ln_alpha, moved.ln_beta, moved.ln_delta_scale) == (
        math.log(3.0), math.log(2.0), 0.0)


def test_age_state_initial():
    ages = AgeState.initial(4)
    assert ages.frame_age.tolist() == [1, 1, 1, 1]
    assert ages.clock_age.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_frame_outcome_consistency():
    # a frame collides exactly when two or more keys share the minimum,
    # and otherwise delivers the unique minimum
    rng = np.random.default_rng(4)
    grid = BackoffParams(alpha=2.0, b_offset=0)
    for _ in range(300):
        slots = rng.integers(0, 3, 4)
        ages = AgeState.initial(4)
        delivered, tied, slot, _ = frame_step(ages, None, slots + 0.5, grid)
        winners = np.flatnonzero(slots == slots.min())
        assert tied.tolist() == (slots == slots.min()).tolist()
        assert slot == slots.min()
        collided = len(winners) >= 2
        assert delivered == (None if collided else winners[0])
        assert (ages.frame_age == 1).sum() == (0 if collided else 1)


# ---------------------------------------------------------------------------
# Thresholds and recommended defaults
# ---------------------------------------------------------------------------

def test_match_threshold_anchor():
    # (N - 1)(1 - delta)/delta by hand
    assert match_alpha_threshold(10, 0.1) == pytest.approx(81.0)


def test_drift_threshold_anchor():
    # (1 * 2) / 1 by hand
    assert drift_alpha_threshold([1.0, 1.0]) == pytest.approx(2.0)


def test_recommended_alpha_formula():
    params = recommended_defaults(10, [1.0] * 10)
    assert params.alpha == pytest.approx(1.1)
    assert params.b_offset == 260
    assert params.minislots_per_update == 10_000


def test_recommended_beta_log_bases():
    # base-10 default keeps beta at the collision-minimizing 1.1 for n=10
    assert recommended_defaults(10, [1.0] * 10).beta == pytest.approx(1.1)
    natural = recommended_defaults(10, [1.0] * 10, log_base=math.e)
    assert natural.beta == pytest.approx(1.1 + math.log(math.log(10)))
    # small networks clamp the log-log term instead of pushing beta below 1
    assert recommended_defaults(2, [1.0, 1.0]).beta == pytest.approx(1.1)
    assert recommended_defaults(1, [1.0]).beta == pytest.approx(1.1)


def test_recommended_aoii_variant():
    params = recommended_defaults(10, [1.0] * 10, aoii=True)
    assert params.alpha == pytest.approx(2.1)
    assert params.beta == pytest.approx(1.05)
    assert params.b_offset == 252


@pytest.mark.parametrize("n, weights, log_base", [
    (3, (1.0,), 10.0),             # too few weights
    (3, (1.0, -1.0, 2.0), 10.0),   # a negative weight
    (3, (), 10.0),                 # no weights
    (2, (1.0, 1.0), 1.0),          # a log base without logarithms
    (2, (1.0, 1.0), 0.5),
])
def test_recommended_defaults_rejects_bad_input(n, weights, log_base):
    with pytest.raises(ParameterError):
        recommended_defaults(n, weights, log_base=log_base)


def test_validate_params_report():
    config = NetworkConfig(10, tuple([1.0] * 10), 100, 1)
    report = validate_params(config, BackoffParams(alpha=81.0), delta=0.1)
    assert report.match_alpha_threshold == pytest.approx(81.0)
    assert report.match_ok
    assert report.drift_alpha_threshold == pytest.approx(90.0)
    assert not report.drift_ok
    assert len(report.warnings) == 1

    report_small = validate_params(config, BackoffParams(alpha=1.1), delta=0.1)
    assert not report_small.match_ok and not report_small.drift_ok
    assert len(report_small.warnings) == 2
    assert report_small.recommended.alpha == pytest.approx(1.1)


def test_readme_export_table_equals_all():
    # README's "The package exports" table lists exactly aoisim.__all__
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("The package exports:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]
    names = [name for row in rows
             for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(aoisim.__all__)


def test_readme_domain_equals_backoff_params_bounds():
    # README states the domain that BackoffParams enforces: its edges are
    # accepted and the next values past them are not
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    m = re.search(r"`beta >= 1 \+ 2\*\*(-\d+)` and "
                  r"`0 <= b_offset <= 2\*\*(\d+)`", readme)
    beta_min, b_max = 1.0 + 2.0 ** int(m[1]), 2 ** int(m[2])
    BackoffParams(alpha=2.0, beta=beta_min, b_offset=b_max)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, beta=float(np.nextafter(beta_min, 0.0)))
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, b_offset=b_max + 1)
