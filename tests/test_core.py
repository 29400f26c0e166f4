import ast
import dataclasses
import math
import re
import warnings
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
)
from aoisim.analysis import log_sum_exp
from aoisim.policies import minislots
from reference import (AgeState, contention_keys, frame_step, log_timers,
                       stream_with_zero_at)

IDEAL = BackoffParams(alpha=2.0)


def _log_e(seed, n):
    """ln E of stream seed's next n exp(1) draws."""
    return RngStream(seed).log_exponentials(np.empty(n))


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------

def test_stream_reproducible_across_instances():
    a = RngStream(123456789, (4, 2))
    b = RngStream(123456789, (4, 2))
    seq_a = ([a.uniform() for _ in range(10)] + list(a.uniforms(5))
             + list(a.log_exponentials(np.empty(3))))
    seq_b = ([b.uniform() for _ in range(10)] + list(b.uniforms(5))
             + list(b.log_exponentials(np.empty(3))))
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
    # a fractional stream id once ran on the truncated id's streams, and a
    # string id or a fractional seed raised a bare TypeError
    for seed, path in [(-1, ()), (1 << 64, ()), (3, (-2,)), (1.5, ()),
                       ("7", ()), (None, ()), (1, (1.5,)), (1, (0.9, 0)),
                       (1, ("2",)), (1, (2, None))]:
        with pytest.raises(ParameterError):
            RngStream(seed, path)
    # whole floats are stored as ints
    whole = RngStream(np.float64(7.0), (3.0, 1))
    assert (whole.seed, whole.path) == (7, (3, 1))
    assert [type(v) for v in (whole.seed, *whole.path)] == [int, int, int]
    assert (whole.uniforms(4).tobytes()
            == RngStream(7, (3, 1)).uniforms(4).tobytes())


def test_unit_exponential_positive():
    # E > 0, ln E finite, away from a zero uniform
    assert np.all(np.isfinite(_log_e(1, 1000)))


def test_log_exponentials_do_not_depend_on_the_split():
    # term k maps the stream's k-th bulk uniform through numpy's vector
    # log1p, as the checks' reference rows do, whatever the calls' sizes
    stream, twin = RngStream(31, (5,)), RngStream(31, (5,))
    got = np.concatenate([stream.log_exponentials(np.empty(k))
                          for k in (1, 7, 42, 1024)])
    whole = RngStream(31, (5,)).log_exponentials(np.empty(1074))
    expected = log_timers(twin, [0.0], 1074)[0]
    assert got.tobytes() == whole.tobytes() == expected.tobytes()
    # n terms take exactly n uniforms
    assert stream.uniforms(5).tobytes() == twin.uniforms(5).tobytes()


def test_log_exponentials_take_a_zero_uniform_as_minus_infinity():
    # a zero uniform is E = 0, ln E = -inf, not redrawn and with no
    # RuntimeWarning, so n terms take exactly n uniforms
    stream, twin = stream_with_zero_at(5), stream_with_zero_at(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.concatenate([stream.log_exponentials(np.empty(k))
                              for k in (3, 4)])
    u = twin.uniforms(7)
    assert u[5] == 0.0 and got[5] == -math.inf
    assert np.all(np.isfinite(np.delete(got, 5)))
    assert stream.uniforms(9).tobytes() == twin.uniforms(9).tobytes()


def test_jump_ahead_places_generators_in_the_bulk_sequence():
    stream, twin = RngStream(17, (3,)), RngStream(17, (3,))
    # a scalar draw first: reserved draws count from the generator, past
    # the uniforms the scalar cache took
    assert stream.uniform() == twin.uniform()
    ref = twin.uniforms(60)
    reserved = [stream.jump_ahead(count) for count in (7, 0, 43)]
    for part, k in zip(reserved, (0, 7, 7)):
        assert part.uniforms(5).tobytes() == ref[k:k + 5].tobytes()
    assert stream.uniforms(10).tobytes() == ref[50:].tobytes()
    # once the cache runs out it refills past the reserved draws
    for _ in range(4095):
        assert stream.uniform() == twin.uniform()
    stream.jump_ahead(5)
    twin.uniforms(5)
    assert stream.uniform() == twin.uniform()


@pytest.mark.parametrize("method,args,count", [
    ("uniforms", (-1,), "-1"),
    ("uniforms", ((3, -2),), "(3, -2)"),
    ("uniforms", ((-2, 4),), "(-2, 4)"),
    ("integers", (5, -3), "-3"),
    ("integers", (5, (2, -1)), "(2, -1)"),
    ("jump_ahead", (-60,), "-60"),
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
    key = contention_keys(np.log([0.693]), 0.0, IDEAL, discrete=False)
    assert math.exp(key[0]) == pytest.approx(0.693)


def test_sample_exponential_rate_two():
    # E / rate by hand: 0.693 / 2
    key = contention_keys(np.log([0.693]), math.log(2.0), IDEAL,
                          discrete=False)
    assert math.exp(key[0]) == pytest.approx(0.3465, abs=1e-10)


def test_sample_exponential_monte_carlo_mean():
    # Monte Carlo oracle on the unit exponential
    mean = float(np.exp(_log_e(2024, 1_000_000)).mean())
    assert 0.997 <= mean <= 1.003


def test_sample_exponential_log_matches_linear():
    log_e = _log_e(50, 50)
    keys = contention_keys(log_e, 1.5, IDEAL, discrete=False)
    np.testing.assert_allclose(keys, np.log(np.exp(log_e) * math.exp(-1.5)),
                               atol=1e-12)


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
    log_z = _log_e(9, 200)
    slots = _minislots(log_z, params)
    for zi, d in zip(np.exp(log_z), slots):
        if d > 0:
            assert 1.3 ** (d - 40) <= zi * (1 + 1e-12)
        assert zi < 1.3 ** (d - 40 + 1) * (1 + 1e-12)


def test_discretize_monotone_in_z_and_b():
    zs = np.sort(np.exp(_log_e(31, 100)) * 10)
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
        log_e = s.log_exponentials(np.empty(6))
        linear = np.exp(log_e) / np.exp(log_rates)
        logs = log_e - log_rates
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
    # counts and the seed are whole numbers: a horizon of 2.5 frames ran
    # 3, one of 2.5 deliveries ran 64, and a seed of 1.5 reached numpy
    for args, name in [(("2", (1.0, 1.0), 10, 0), "n_sources"),
                       ((2, (1.0, 1.0), 2.5, 0), "horizon_frames"),
                       ((2, (1.0, 1.0), "10", 0), "horizon_frames"),
                       ((2, (1.0, 1.0), 10, 1.5), "seed"),
                       ((2, (1.0, 1.0), 10, None), "seed")]:
        with pytest.raises(ParameterError, match=f"{name} must be a whole"):
            NetworkConfig(*args)
    whole = NetworkConfig(2.0, (1.0, 1.0), 10.0, np.float64(3.0))
    assert [type(v) for v in (whole.n_sources, whole.horizon_frames,
                              whole.seed)] == [int, int, int]
    assert whole == NetworkConfig(2, (1.0, 1.0), 10, 3)


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


def test_backoff_params_validation():
    with pytest.raises(ParameterError):
        BackoffParams(alpha=1.0)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, beta=0.9)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, b_offset=-1)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, minislots_per_update=0)
    # B and M count minislots; at B = 2.5 resolve and resolve_rows would
    # give one row minislots 5.5 and 5
    for name in ("b_offset", "minislots_per_update"):
        with pytest.raises(ParameterError, match=f"{name} must be a whole"):
            BackoffParams(alpha=1.1, beta=1.1, **{name: 2.5})


def test_backoff_params_reject_values_outside_the_domain():
    # B = 2**53 + 3 once made resolve return minislot -1; an M that no
    # float holds would need a division per frame.  Each error names the
    # bound
    with pytest.raises(ParameterError, match=r"2\*\*52"):
        BackoffParams(alpha=1.5, beta=1.3, b_offset=2**53 + 3)
    with pytest.raises(ParameterError, match=r"1 \+ 2\*\*-40"):
        BackoffParams(alpha=1.5, beta=1.0 + 2**-41)
    for m in (2**53 + 1, 3**40):
        with pytest.raises(ParameterError, match=r"\[1, 2\*\*53\]"):
            BackoffParams(alpha=1.5, beta=1.1, minislots_per_update=m)


def test_backoff_params_logs_leave_repr_eq_and_hash_alone():
    # tests/regression_pins.json stores the repr; the logs taken at
    # construction are attributes, not fields
    params = BackoffParams(alpha=1.5, beta=1.2, b_offset=7,
                           minislots_per_update=100)
    assert repr(params) == ("BackoffParams(alpha=1.5, beta=1.2, b_offset=7, "
                            "minislots_per_update=100)")
    assert [f.name for f in dataclasses.fields(params)] == [
        "alpha", "beta", "b_offset", "minislots_per_update"]
    assert params == BackoffParams(1.5, 1.2, 7, 100)
    assert hash(params) == hash((1.5, 1.2, 7, 100))
    assert params != BackoffParams(1.5, 1.2, 7, 50)
    assert (params.ln_alpha, params.ln_beta) == (math.log(1.5), math.log(1.2))
    moved = dataclasses.replace(params, alpha=3.0, beta=2.0)
    assert (moved.ln_alpha, moved.ln_beta) == (math.log(3.0), math.log(2.0))


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


def test_readme_export_table_equals_all():
    # README's "The package exports" table lists exactly aoisim.__all__
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("The package exports:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]
    names = [name for row in rows
             for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(aoisim.__all__)


def test_every_export_is_used_by_the_package():
    # no public API that only tests use: each name in __all__ is loaded
    # (named, called, constructed) or imported by a package module other
    # than __init__
    used = set()
    for path in Path(aoisim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(aoisim.__all__) - used) == []


def test_readme_domain_equals_backoff_params_bounds():
    # README states the domain that BackoffParams enforces: its edges are
    # accepted and the next values past them are not
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    m = re.search(r"`beta >= 1 \+ 2\*\*(-\d+)`,\s+"
                  r"`0 <= b_offset <= 2\*\*(\d+)`\s+and\s+"
                  r"`(\d+) <= minislots_per_update <= 2\*\*(\d+)`", readme)
    beta_min, b_max = 1.0 + 2.0 ** int(m[1]), 2 ** int(m[2])
    m_min, m_max = int(m[3]), 2 ** int(m[4])
    for m_edge in (m_min, m_max):
        BackoffParams(alpha=2.0, beta=beta_min, b_offset=b_max,
                      minislots_per_update=m_edge)
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, beta=float(np.nextafter(beta_min, 0.0)))
    with pytest.raises(ParameterError):
        BackoffParams(alpha=2.0, b_offset=b_max + 1)
    for m_past in (m_min - 1, m_max + 1):
        with pytest.raises(ParameterError):
            BackoffParams(alpha=2.0, minislots_per_update=m_past)
