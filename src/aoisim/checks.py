"""Randomized verifiers for the protocol's analytical guarantees.

Each check draws a batch of random network states from a seeded stream,
evaluates the guarantee it targets (exactly where a closed form exists,
by Monte Carlo where it does not), and reports the worst margin seen.
A check passes when its worst margin is non-negative.  The CLI `verify`
subcommand maps stable ids onto these functions.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .analysis import (
    distinct_timer_bound,
    lyapunov_drift_pair,
    match_probability,
    overhead_upper_bound,
    timer_separation_term,
)
from .core import (
    DEFAULT_SEED,
    BackoffParams,
    RngStream,
    drift_alpha_threshold,
    match_alpha_threshold,
    whole_number,
)
from .policies import (
    aoi_exponents,
    key_of,
    minislots,
    scheduling_probabilities,
)

# Random states drawn and evaluated per block, so memory stays bounded
# at any trial count; the default counts fit in one block.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    worst_margin: float
    trials: int
    detail: str

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"{status} {self.name}: worst margin {self.worst_margin:.6g} "
                f"over {self.trials} trials ({self.detail})")


def _state_stream(seed: int, least_n: int = 2, **counts: int) -> tuple:
    """The stream random states are drawn from, then each count as an
    int, once every trial and sample count is a whole number at least 1
    and the source count n one at least least_n (one source has no
    argmax set to match and no drift to compare, but its idle time is
    still bounded).  Whole floats run as ints."""
    counts = [whole_number(name, count, least_n if name == "n" else 1)
              for name, count in counts.items()]
    return (RngStream(seed, (2,)), *counts)


def _blocks(trials: int) -> list[int]:
    """Row counts of the state blocks that make up trials states."""
    return [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]


def _worker_count() -> int:
    """The cores this process may run on, and so the workers that draw
    and reduce one block of sampled states."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Sampled states: a plan drawn in order, reductions run across the cores
# ---------------------------------------------------------------------------

class _State(NamedTuple):
    """One sampled state: one row of ln-timers per source, at log rate
    log_rate[i]; reduce(rows, scratch) folds the rows, drawn one after
    another, into the state's statistic, and info is what the check's
    margin reads."""

    log_rate: list[float]
    reduce: Callable[..., Any]
    info: Any


class _Scratch:
    """The rows one worker reuses from state to state.  The winner index
    takes the smallest unsigned dtype that holds the index of the last
    of most_rows rows."""

    def __init__(self, samples: int, most_rows: int):
        self.row = np.empty(samples)
        self.low = np.empty(samples)
        self.winner = np.empty(samples, np.min_scalar_type(most_rows - 1))
        self.less = np.empty_like(self.winner)


def _reserved_rows(stream: RngStream, log_rate: list[float],
                   row: np.ndarray) -> Iterator[np.ndarray]:
    """Each source's ln-timers ln E - log_rate_i in turn, written over
    row, from the stream that draws the state's reserved draws, as the
    engine draws its timers (RngStream.log_exponentials)."""
    for lr in log_rate:
        stream.log_exponentials(row)
        row -= lr
        yield row


def _run(block: list, samples: int) -> list:
    """The statistic of each (state, reserved stream) of block, in block
    order.

    The usable cores pull whole states from one shared queue, the states
    with the most rows first; the calling thread is one of them, and a
    thread pool opened for this block supplies the rest.  Each worker
    draws a state from the stream reserved for it and reduces it in its
    own scratch rows.  An error stops every worker from taking another
    state, and is raised once all of them have stopped.
    Leaving the pool waits for its threads, so none outlives the block.
    """
    from concurrent.futures import ThreadPoolExecutor

    order = iter(sorted(range(len(block)),
                        key=lambda k: -len(block[k][0].log_rate)))
    most_rows = max(len(state.log_rate) for state, _ in block)
    lock = threading.Lock()
    failed = threading.Event()
    results = [None] * len(block)

    def work() -> None:
        scratch = _Scratch(samples, most_rows)
        while not failed.is_set():
            with lock:
                k = next(order, None)
            if k is None:
                return
            state, reserved = block[k]
            try:
                results[k] = state.reduce(
                    _reserved_rows(reserved, state.log_rate, scratch.row),
                    scratch)
            except BaseException:
                failed.set()
                raise

    cores = _worker_count()
    with ThreadPoolExecutor(cores, thread_name_prefix="aoisim-timers") as pool:
        jobs = [pool.submit(work) for _ in range(min(cores, len(block)) - 1)]
        work()
    for job in jobs:
        job.result()  # raises the error a pool thread stopped on
    return results


def _sample(stream: RngStream, states: Iterator[_State],
            samples: int) -> Iterator[tuple[_State, Any]]:
    """(state, statistic) for each of states, in order; states draws its
    parameters from stream, the stream at the check's seed.

    Plan pass: at most _BLOCK states at a time are drawn in order, each
    state's parameters through the stream's scalar API, and each state's
    rows x samples bulk draws are reserved (RngStream.jump_ahead), so the
    scalar cache refills where drawing the rows would leave it.  Run
    pass: _run draws and reduces the block's states across the cores.
    The statistics are those of drawing every state's rows one after
    another from the stream's uniforms, whatever the core count.
    """
    while block := [(state, stream.jump_ahead(len(state.log_rate) * samples))
                    for state in itertools.islice(states, _BLOCK)]:
        yield from zip([state for state, _ in block], _run(block, samples))


def _first_minimum_wins(rows: Iterator[np.ndarray],
                        scratch: _Scratch) -> np.ndarray:
    """Per row, the columns whose first minimum it holds: what
    np.bincount(np.argmin(timers, axis=0)) counts, folded row by row into
    a running minimum and the index of the row that holds it.  Row i
    takes a column only when strictly below the minimum so far, so a tie
    stays with the first; i exceeds every index so far, so taking it is
    a maximum with i times the strict-less flag."""
    low, winner, less = scratch.low, scratch.winner, scratch.less
    np.copyto(low, next(rows))
    winner.fill(0)
    n = 1
    for row in rows:
        np.less(row, low, out=less)
        np.multiply(less, n, out=less)
        np.maximum(winner, less, out=winner)
        np.minimum(low, row, out=low)
        n += 1
    # one compare per row into less: bincount would cast the whole index
    # to intp first, a temporary of 8 bytes per sample
    return np.array([np.count_nonzero(np.equal(winner, i, out=less))
                     for i in range(n)])


def _grid_slots(log_z: np.ndarray, params: BackoffParams,
                out: np.ndarray) -> np.ndarray:
    """The minislot of each ln-timer, by the rule the engine resolves by
    (policies.key_of, then policies.minislots), written to out."""
    key = key_of(log_z, params, discrete=True, out=out)
    return minislots(key, params.b_offset, out=out)


def _distinct_minislots(rows: Iterator[np.ndarray], scratch: _Scratch,
                        params: BackoffParams) -> int:
    """How many columns put two sources' timers in different minislots."""
    first = _grid_slots(next(rows), params, scratch.low)
    second = _grid_slots(next(rows), params, scratch.row)
    return int(np.count_nonzero(np.not_equal(first, second,
                                             out=scratch.less)))


def _minimum_slot_sum(rows: Iterator[np.ndarray], scratch: _Scratch,
                      params: BackoffParams) -> float:
    """The sum over columns of the winning minislot.  The grid map is
    monotone, so it is the minislot of the column minimum; the sum of
    whole minislots is exact in any order."""
    low = scratch.low
    np.copyto(low, next(rows))
    for row in rows:
        np.minimum(low, row, out=low)
    return float(_grid_slots(low, params, low).sum())


# ---------------------------------------------------------------------------
# Per-frame match with the centralized argmax rules
# ---------------------------------------------------------------------------

def _match_check(name: str, states, trials: int, n: int, delta: float,
                 alpha: float | None) -> CheckResult:
    """Closed-form contention mass on the argmax set is at least 1 - delta
    at every state; states(rows) draws the exponents of rows states."""
    # match_alpha_threshold range-checks delta, which the gate reads
    # whatever alpha is
    threshold = match_alpha_threshold(n, delta)
    alpha = threshold if alpha is None else alpha
    worst = min(float((match_probability(states(rows), alpha)
                       - (1.0 - delta)).min()) for rows in _blocks(trials))
    return CheckResult(name=name, ok=worst >= 0.0,
                       worst_margin=worst, trials=trials,
                       detail=f"n={n} alpha={alpha:g} delta={delta:g}, "
                              f"margin = mass - (1 - delta)")


def check_max_weight_match(trials: int = 10_000, n: int = 10,
                           delta: float = 0.1, alpha: float | None = None,
                           seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-form contention mass on the max-weight argmax set is at
    least 1 - delta at every random integer-age, integer-weight state."""
    stream, trials, n = _state_stream(seed, trials=trials, n=n)

    def states(rows: int) -> np.ndarray:
        ages = 1 + stream.integers(20, (rows, n))
        return aoi_exponents(ages, 1 + stream.integers(5, (rows, n)))
    return _match_check("max-weight match probability", states, trials, n,
                        delta, alpha)


def check_max_aoii_match(trials: int = 10_000, n: int = 10,
                         delta: float = 0.1, alpha: float | None = None,
                         seed: int = DEFAULT_SEED) -> CheckResult:
    """Same guarantee with integer mismatch ages as the exponents."""
    stream, trials, n = _state_stream(seed, trials=trials, n=n)
    return _match_check("max-mismatch-age match probability",
                        lambda rows: stream.integers(30, (rows, n)), trials, n,
                        delta, alpha)


# ---------------------------------------------------------------------------
# Closed-form win distribution against sampled contention
# ---------------------------------------------------------------------------

def _winner_states(stream: RngStream, trials: int) -> Iterator[_State]:
    """lemma1's states: n sources with random ages, contending at alpha,
    from an (n, alpha) grid in turn; info is the closed-form win
    distribution."""
    grid = [(n, alpha) for n in (2, 5, 10) for alpha in (1.1, 2.0, 9.0)]
    for s in range(trials):
        n, alpha = grid[s % len(grid)]
        ages = np.array([1 + stream.integer(8) for _ in range(n)])
        exponent = aoi_exponents(ages, np.ones(n))
        yield _State((exponent * math.log(alpha)).tolist(),
                     _first_minimum_wins,
                     scheduling_probabilities(alpha, exponent))


def check_winner_distribution(trials: int = 20, samples: int = 100_000,
                              seed: int = DEFAULT_SEED) -> CheckResult:
    """Empirical winner frequencies of the idealized contention match the
    closed-form distribution within 3 Monte Carlo standard errors."""
    worst = math.inf
    stream, trials, samples = _state_stream(seed, trials=trials,
                                            samples=samples)
    for state, wins in _sample(stream, _winner_states(stream, trials),
                               samples):
        probs = state.info
        stderr = np.sqrt(probs * (1.0 - probs) / samples)
        margin = float((3.0 * stderr - np.abs(wins / samples - probs)).min())
        worst = min(worst, margin)
    return CheckResult(name="contention winner distribution", ok=worst >= 0.0,
                       worst_margin=worst, trials=trials,
                       detail=f"{samples} contentions per state, "
                              f"margin = 3*stderr - |freq - closed form|")


# ---------------------------------------------------------------------------
# Drift domination
# ---------------------------------------------------------------------------

def check_drift_dominance(trials: int = 10_000, n: int = 10,
                          seed: int = DEFAULT_SEED) -> CheckResult:
    """Contention drift never exceeds the optimal stationary randomized
    drift at random integer states once alpha clears its threshold."""
    stream, trials, n = _state_stream(seed, trials=trials, n=n)
    worst = math.inf
    for rows in _blocks(trials):
        weights = 1 + stream.integers(5, (rows, n))
        ages = 1 + stream.integers(20, (rows, n))
        alpha = 1.01 * drift_alpha_threshold(weights)
        d_csma, d_sr = lyapunov_drift_pair(ages, weights, alpha)
        # 1e-9 absorbs float rounding at exactly-tied states
        worst = min(worst, float(((d_sr - d_csma) + 1e-9).min()))
    return CheckResult(name="drift domination", ok=worst >= 0.0,
                       worst_margin=worst, trials=trials,
                       detail=f"n={n}, margin = randomized drift - contention drift")


# ---------------------------------------------------------------------------
# Distinct-timer bound
# ---------------------------------------------------------------------------

def _distinct_states() -> Iterator[_State]:
    """thm3's states: two sources on every (rate, rate, beta, B) cell of
    its grid, B innermost; info is the cell's closed-form bound and the
    step of the bound's directional term from the previous B.  The grid
    draws no parameter, so only the rows come from the stream."""
    log_rates = (0.0, 10.0, 20.0)
    for lri in log_rates:
        for lrj in log_rates:
            for beta in (1.1, 1.5, 2.0):
                prev = -math.inf
                for b in (0, 10, 250):
                    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b)
                    psi = timer_separation_term(b, beta, lri, lrj)
                    yield _State([lri, lrj],
                                 partial(_distinct_minislots, params=params),
                                 (distinct_timer_bound(lri, lrj, params),
                                  psi - prev))
                    prev = psi


def check_distinct_timer_bound(samples: int = 100_000,
                               seed: int = DEFAULT_SEED) -> CheckResult:
    """Monte Carlo P(distinct minislot timers) respects its closed-form
    lower bound on a (rate, beta, B) grid, and the bound's directional
    terms are non-decreasing in B.

    It passes when every Monte Carlo slack and every step (plus 1e-15)
    is non-negative.  The worst margin is the least slack while every
    step passes, and the least step otherwise: saturated cells hold
    steps of exactly 0, which would hide every slack."""
    slack = least_step = math.inf
    cells = 0
    stream, samples = _state_stream(seed, samples=samples)
    for state, distinct in _sample(stream, _distinct_states(), samples):
        bound, step = state.info
        # Laplace-smoothed, so the error cannot vanish when every pair
        # lands on the same side
        p_smooth = (distinct + 1) / (samples + 2)
        stderr = math.sqrt(p_smooth * (1.0 - p_smooth) / samples)
        slack = min(slack, distinct / samples - (bound - 3.0 * stderr))
        # 1e-15 absorbs ulp-level rounding where psi is ~0
        least_step = min(least_step, step + 1e-15)
        cells += 1
    worst = slack if least_step >= 0.0 else least_step
    return CheckResult(name="distinct-timer lower bound", ok=worst >= 0.0,
                       worst_margin=worst, trials=cells,
                       detail=f"{samples} timer pairs per cell, margin = least "
                              "MC slack, or least B-monotonicity margin "
                              f"{least_step:.3g} if below 0")


# ---------------------------------------------------------------------------
# Idle-time bound
# ---------------------------------------------------------------------------

def _idle_states(stream: RngStream, trials: int, n: int
                 ) -> Iterator[_State]:
    """thm4's states: n unit-weight sources with random ages on a random
    (beta, B) grid; info is the closed-form idle-time bound in
    minislots."""
    for _ in range(trials):
        ages = np.array([1 + stream.integer(10) for _ in range(n)])
        weights = np.ones(n)
        params = BackoffParams(alpha=1.2, beta=1.0 + 0.1 + 0.4 * stream.uniform(),
                               b_offset=200 + stream.integer(100))
        yield _State((aoi_exponents(ages, weights) * params.ln_alpha).tolist(),
                     partial(_minimum_slot_sum, params=params),
                     overhead_upper_bound(ages, weights, params,
                                          minislots=True))


def check_idle_time_bound(trials: int = 10, samples: int = 100_000,
                          n: int = 10, seed: int = DEFAULT_SEED) -> CheckResult:
    """Sampled mean winning timer stays below the closed-form idle-time
    bound at random states."""
    worst = math.inf
    stream, trials, samples, n = _state_stream(
        seed, least_n=1, trials=trials, samples=samples, n=n)
    for state, total in _sample(stream, _idle_states(stream, trials, n),
                                samples):
        worst = min(worst, state.info - total / samples)
    return CheckResult(name="idle-time upper bound", ok=worst >= 0.0,
                       worst_margin=worst, trials=trials,
                       detail=f"{samples} contentions per state, "
                              "margin in minislots = bound - sampled mean")


CHECKS = {
    "thm1": check_max_weight_match,
    "lemma1": check_winner_distribution,
    "lemma2": check_drift_dominance,
    "thm3": check_distinct_timer_bound,
    "thm4": check_idle_time_bound,
    "thm5": check_max_aoii_match,
}
