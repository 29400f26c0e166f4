"""Fast passes over the randomized verifiers; the acceptance suite runs
them at their full trial counts."""

import math
import os
import re
import subprocess
import sys
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


# ---------------------------------------------------------------------------
# Timer blocks split across threads
# ---------------------------------------------------------------------------

def _sequential_log_timers(stream, log_rate, samples):
    """The reference: each source's row drawn after the previous one."""
    return np.array([np.log(stream.unit_exponentials(samples)) - lr
                     for lr in log_rate]).reshape(len(log_rate), samples)


def _assert_streams_agree(a, b):
    # the next bulk and scalar draws of both streams are the same bits
    assert a.uniforms(7).tobytes() == b.uniforms(7).tobytes()
    assert [a.uniform() for _ in range(3)] == [b.uniform() for _ in range(3)]


@pytest.mark.parametrize("samples", [1, 3, 20_000, 100_001])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_log_timers_do_not_depend_on_the_worker_count(monkeypatch, workers,
                                                      samples):
    monkeypatch.setattr(checks, "_worker_count", lambda: workers)
    switch = sys.getswitchinterval()
    # more threads than cores, switching often, must not move a bit
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 2, 5, 10):
            got, ref = RngStream(41, (n,)), RngStream(41, (n,))
            # a scalar draw first: offsets count from the generator
            assert got.uniform() == ref.uniform()
            block = np.full((n + 1, samples), 7.0)
            log_rate = np.linspace(-3.0, 20.0, n)
            log_z = checks._log_timers(got, log_rate, block)
            assert np.shares_memory(log_z, block)
            expected = _sequential_log_timers(ref, log_rate, samples)
            assert log_z.tobytes() == expected.tobytes()
            assert np.all(block[n] == 7.0)
            _assert_streams_agree(got, ref)
    finally:
        sys.setswitchinterval(switch)


def _stream_with_zero_at(j):
    """A stream whose j-th next bulk uniform is 0.0: PCG64 outputs the
    xor of its state's halves, rotated, so a zero state outputs 0, and the
    generator steps before each output."""
    stream = RngStream(8)
    bits = stream._gen.bit_generator
    state = bits.state
    state["state"]["state"] = 0
    bits.state = state
    bits.advance(-(j + 1))
    return stream


@pytest.mark.parametrize("row,col", [(2, 5), (0, 15), (3, 29)],
                         ids=["first-range", "middle-range", "last-range"])
def test_log_timers_redraw_a_zero_uniform_as_the_sequential_rows_do(
        monkeypatch, row, col):
    monkeypatch.setattr(checks, "_worker_count", lambda: 3)
    n, samples = 4, 30  # column ranges [0, 10), [10, 20), [20, 30)
    j = row * samples + col
    assert _stream_with_zero_at(j).uniforms(n * samples)[j] == 0.0
    log_rate = np.array([0.0, 1.5, -2.0, 9.0])
    got, ref = _stream_with_zero_at(j), _stream_with_zero_at(j)
    log_z = checks._log_timers(got, log_rate, np.empty((n, samples)))
    expected = _sequential_log_timers(ref, log_rate, samples)
    assert np.isfinite(log_z).all()
    assert log_z.tobytes() == expected.tobytes()
    _assert_streams_agree(got, ref)


@pytest.mark.parametrize("block,problem", [
    (np.empty((4, 20))[:, ::2], "non-contiguous float64 block of shape (4, 10)"),
    (np.empty((10, 4)).T, "non-contiguous float64 block of shape (4, 10)"),
    (np.empty((4, 10), dtype=np.float32), "float32 block of shape (4, 10)"),
    (np.empty((2, 10)), "float64 block of shape (2, 10)"),
    (np.empty(10), "float64 block of shape (10,)"),
])
def test_log_timers_reject_a_block_that_cannot_hold_the_timers(block, problem):
    # zip would drop the rates past the block's last row
    with pytest.raises(ParameterError, match=re.escape(
            "timers of (3,) rates need a C-contiguous float64 block with at "
            f"least 3 rows, got a {problem}")):
        checks._log_timers(RngStream(1), [0.0, 1.0, 2.0], block)


def _run_python(code):
    env = dict(os.environ,
               PYTHONPATH=str(Path(aoisim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_starts_no_thread_and_a_split_check_exits():
    # the pool starts on first use, never at import, and its idle
    # threads do not hold up the interpreter's exit
    _run_python("import sys, threading\n"
                "import aoisim\n"
                "assert threading.active_count() == 1, threading.enumerate()\n"
                "assert 'concurrent.futures' not in sys.modules\n"
                "from aoisim import checks\n"
                "checks._worker_count = lambda: 2\n"
                "assert checks.CHECKS['thm4'](samples=20_000).ok\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_timers_on_its_own_threads():
    # the parent's pool threads do not exist in a fork; a child waiting
    # on them would hang, so the alarm ends it
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
