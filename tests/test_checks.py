"""Fast passes over the randomized verifiers; the acceptance suite runs
them at their full trial counts."""

import functools
import inspect
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import aoisim
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aoisim import BackoffParams, ParameterError, RngStream, checks
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
import reference
from reference import contention_keys, stream_with_zero_at


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


@pytest.mark.parametrize("cid", ["thm1", "thm5"])
@pytest.mark.parametrize("alpha", [None, 20.0])
@pytest.mark.parametrize("delta", [1.5, -0.5, 0.0, 1.0, math.nan])
def test_match_checks_reject_delta_outside_0_1_whatever_alpha(cid, alpha,
                                                             delta):
    # with an explicit alpha, delta = 1.5 once passed a vacuous gate and
    # delta = -0.5 failed one no alpha can pass
    with pytest.raises(ParameterError, match="delta must be in"):
        CHECKS[cid](trials=20, alpha=alpha, delta=delta)


@pytest.mark.parametrize("cid,counts,name", [
    ("thm1", {"trials": 2.5}, "trials"),
    ("lemma1", {"samples": 10.5}, "samples"),
    ("lemma1", {"trials": None}, "trials"),
    ("thm3", {"samples": "1000"}, "samples"),
    ("thm4", {"n": 2.5}, "n"),
    ("thm5", {"trials": "3"}, "trials"),
])
def test_check_counts_are_whole_numbers(cid, counts, name):
    # each once raised a bare TypeError from deep inside the check
    with pytest.raises(ParameterError, match=f"{name} must be a whole number"):
        CHECKS[cid](**counts)


def test_check_counts_run_whole_floats_as_ints():
    result = CHECKS["thm1"](trials=10.0)
    assert result == CHECKS["thm1"](trials=10) and type(result.trials) is int
    assert CHECKS["thm3"](samples=1e3) == CHECKS["thm3"](samples=1000)
    assert (CHECKS["thm4"](trials=2.0, samples=500.0, n=3.0)
            == CHECKS["thm4"](trials=2, samples=500, n=3))


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
    # minimum as argmin's does; the running first minimum folds the rows
    # in turn
    n, samples = x.shape
    def wins(rows):
        return checks._first_minimum_wins(iter(rows),
                                          checks._Scratch(samples, n)).tolist()
    expected = np.bincount(np.argmin(x, axis=0), minlength=n)
    assert wins(x) == expected.tolist()
    assert wins(np.full((n, samples), 3.0)) == [samples] + [0] * (n - 1)


# ---------------------------------------------------------------------------
# Sampled states drawn and reduced across threads
# ---------------------------------------------------------------------------

# check id -> (check, reference statistics from a stream and a sample count)
_SAMPLED = {"lemma1": (check_winner_distribution, reference.winner_counts),
            "thm3": (check_distinct_timer_bound,
                     reference.distinct_minislot_counts),
            "thm4": (check_idle_time_bound, reference.minimum_slot_sums)}


def _statistics(monkeypatch, cid, new_stream=None, **kwargs):
    """The per-state statistics the check's executor gives at kwargs;
    new_stream, if given, replaces the stream at the check's seed."""
    got = []
    sample = checks._sample

    def recording(*args):
        for state, statistic in sample(*args):
            got.append(statistic)
            yield state, statistic
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_sample", recording)
        if new_stream is not None:
            patch.setattr(checks, "_state_stream", new_stream)
        _SAMPLED[cid][0](**kwargs)
    return got


@functools.lru_cache(maxsize=None)
def _reference_statistics(cid, samples):
    stream, = checks._state_stream(checks.DEFAULT_SEED)
    if samples is None:
        samples = inspect.signature(_SAMPLED[cid][0]).parameters[
            "samples"].default
    return list(_SAMPLED[cid][1](stream, samples))


def _assert_statistics_equal(got, expected):
    # win counts, distinct counts and minislot sums, bit for bit
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("samples", [1, 3, 2000, 20_000, 100_001, None])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_log_timers_do_not_depend_on_the_worker_count(monkeypatch, workers,
                                                      samples):
    # each state's ln-timers, and so its statistic, are those of drawing
    # its rows one after another, whatever the worker count (None: the
    # checks' default samples)
    monkeypatch.setattr(checks, "_worker_count", lambda: workers)
    switch = sys.getswitchinterval()
    # more threads than cores, switching often, must not move a bit
    sys.setswitchinterval(1e-6)
    try:
        for cid in _SAMPLED:
            kwargs = {} if samples is None else {"samples": samples}
            _assert_statistics_equal(_statistics(monkeypatch, cid, **kwargs),
                                     _reference_statistics(cid, samples))
    finally:
        sys.setswitchinterval(switch)


def test_distinct_timer_bound_margin_is_the_least_monte_carlo_slack():
    # saturated cells hold B-monotonicity steps of exactly 0, whose
    # margin 1e-15 once hid every slack; while the steps pass, the margin
    # is the least slack, recomputed here from the reference counts
    samples = 100_000
    bounds = [aoisim.distinct_timer_bound(
                  lri, lrj, BackoffParams(alpha=2.0, beta=beta, b_offset=b))
              for lri in (0.0, 10.0, 20.0) for lrj in (0.0, 10.0, 20.0)
              for beta in (1.1, 1.5, 2.0) for b in (0, 10, 250)]
    slacks = []
    for distinct, bound in zip(_reference_statistics("thm3", None), bounds):
        p = (distinct + 1) / (samples + 2)
        stderr = math.sqrt(p * (1.0 - p) / samples)
        slacks.append(distinct / samples - (bound - 3.0 * stderr))
    result = check_distinct_timer_bound()
    assert result.ok and result.worst_margin == min(slacks) > 1e-15


def test_sampled_checks_plan_their_states_in_blocks(monkeypatch):
    # at most _BLOCK states are planned at a time; the scalar cache must
    # refill across blocks where the rows drawn in turn leave it
    monkeypatch.setattr(checks, "_worker_count", lambda: 2)
    monkeypatch.setattr(checks, "_BLOCK", 7)
    for cid in _SAMPLED:
        _assert_statistics_equal(_statistics(monkeypatch, cid, samples=50),
                                 _reference_statistics(cid, 50))


def _assert_streams_agree(a, b):
    # the next bulk and scalar draws of both streams are the same bits
    assert a.uniforms(7).tobytes() == b.uniforms(7).tobytes()
    assert [a.uniform() for _ in range(3)] == [b.uniform() for _ in range(3)]


# check id -> (states, rows per state, first bulk draw): lemma1 at 3
# states has 2 sources each, thm4 at 3 states 3 sources, thm3 always 2;
# the first scalar draw of lemma1 and thm4 takes 4096 uniforms into the
# cache before any row is drawn
_ZERO_CASES = {"lemma1": (3, 2, 4096), "thm3": (81, 2, 0), "thm4": (3, 3, 4096)}


@pytest.mark.parametrize("place", ["first", "middle", "last"],
                         ids=["first-range", "middle-range", "last-range"])
def test_log_timers_take_a_zero_uniform_as_the_sequential_rows_do(
        monkeypatch, place):
    # the zero lies in the first, a middle or the last state, and so in
    # the first, a middle or the last range of states planned together;
    # it is E = 0, an ln-timer of -inf, where the rows drawn in turn
    # have it, and nothing is drawn again
    monkeypatch.setattr(checks, "_worker_count", lambda: 3)
    # two states per range
    monkeypatch.setattr(checks, "_BLOCK", 2)
    samples = 30
    for cid, (states, rows, first) in _ZERO_CASES.items():
        state = {"first": 0, "middle": states // 2, "last": states - 1}[place]
        j = first + (state * rows + rows - 1) * samples + 7
        assert stream_with_zero_at(j).uniforms(j + 1)[j] == 0.0
        made = []

        def new_stream(seed, least_n=2, **counts):
            made.append(stream_with_zero_at(j))
            return (made[-1], *counts.values())
        kwargs = {} if cid == "thm3" else {"trials": states}
        if cid == "thm4":
            kwargs["n"] = rows
        got = _statistics(monkeypatch, cid, new_stream, samples=samples,
                          **kwargs)
        ref = stream_with_zero_at(j)
        expected = list(_SAMPLED[cid][1](ref, samples, **kwargs))
        # one stream, drawn once from the check's seed
        assert len(made) == 1, cid
        _assert_statistics_equal(got, expected)
        _assert_streams_agree(made[-1], ref)


@pytest.mark.parametrize("failing", ["calling", "pool"])
def test_a_failing_reduction_surfaces_after_every_worker_has_stopped(
        monkeypatch, failing):
    # the first reduction on the calling thread, or on a pool thread,
    # raises while the others still run
    monkeypatch.setattr(checks, "_worker_count", lambda: 4)
    lock = threading.Lock()
    started, finished = [], []

    def reduce(rows, scratch):
        for _ in rows:
            pass
        calling = threading.current_thread() is threading.main_thread()
        with lock:
            fail = calling == (failing == "calling") and True not in started
            started.append(fail)
        time.sleep(0.1 if fail else 0.4)
        if fail:
            raise ValueError("reduction failed")
        with lock:
            finished.append(fail)
    stream = RngStream(5)
    block = [(checks._State([0.0], reduce, None), stream.jump_ahead(10))
             for _ in range(12)]
    with pytest.raises(ValueError, match="reduction failed"):
        checks._run(block, 10)
    # every reduction that started and did not fail had finished, and the
    # failure stopped the workers taking more states
    assert started.count(True) == 1
    assert len(finished) == started.count(False) > 0
    assert len(started) < len(block)


def _run_python(code):
    env = dict(os.environ,
               PYTHONPATH=str(Path(aoisim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_starts_no_thread_and_a_split_check_exits():
    # threads start only while a check splits a block across the cores,
    # never at import, and none is left once the check returns
    _run_python("import sys, threading\n"
                "import aoisim\n"
                "assert threading.active_count() == 1, threading.enumerate()\n"
                "assert 'concurrent.futures' not in sys.modules\n"
                "from aoisim import checks\n"
                "checks._worker_count = lambda: 4\n"
                "assert checks.CHECKS['thm4'](trials=2, samples=20_000).ok\n"
                "assert threading.active_count() == 1, threading.enumerate()\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_timers_on_its_own_threads():
    # a fork copies only the calling thread; a child waiting on threads
    # it does not have would hang, so the alarm ends it
    _run_python("import os, signal\n"
                "from aoisim import checks\n"
                "checks._worker_count = lambda: 2\n"
                "first = checks.CHECKS['thm4'](samples=20_000)\n"
                "pid = os.fork()\n"
                "if pid == 0:\n"
                "    signal.alarm(60)\n"
                "    again = checks.CHECKS['thm4'](samples=20_000)\n"
                "    os._exit(0 if again == first else 1)\n"
                "_, status = os.waitpid(pid, 0)\n"
                "assert os.waitstatus_to_exitcode(status) == 0, status\n")


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
