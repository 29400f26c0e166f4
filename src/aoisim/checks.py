"""Randomized verifiers for the protocol's analytical guarantees.

Each check draws a batch of random network states from a seeded stream,
evaluates the guarantee it targets (exactly where a closed form exists,
by Monte Carlo where it does not), and reports the worst margin seen.
A check passes when its worst margin is non-negative.  The CLI `verify`
subcommand maps stable ids onto these functions.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

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
    ParameterError,
    RngStream,
    drift_alpha_threshold,
    match_alpha_threshold,
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


def _state_stream(seed: int, least_n: int = 2, **counts: int) -> RngStream:
    """The stream random states are drawn from, once every trial and
    sample count is at least 1 and the source count n at least least_n
    (one source has no argmax set to match and no drift to compare, but
    its idle time is still bounded)."""
    for name, count in counts.items():
        least = least_n if name == "n" else 1
        if count < least:
            raise ParameterError(f"{name} must be >= {least}, got {count}")
    return RngStream(seed, (2,))


def _blocks(trials: int) -> list[int]:
    """Row counts of the state blocks that make up trials states."""
    return [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]


def _worker_count() -> int:
    """The cores this process may run on, and so the column ranges one
    timer block is split into."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool = None  # (pid, ThreadPoolExecutor) once a block has been split


def _executor(threads: int):
    """The process's pool of timer threads, started on first use.  A forked
    child cannot use its parent's threads, so it starts its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(
                threads, thread_name_prefix="aoisim-timers"))
        return _pool[1]


def _fill_columns(gen: np.random.Generator, log_rate: list[float],
                  log_z: np.ndarray, c0: int, c1: int) -> bool:
    """Write ln E - log_rate_i over columns [c0, c1) of every row i of
    log_z, E = -log1p(-u) as unit_exponentials maps it, from gen placed at
    offset c0 of the state's draws; gen steps over the other columns
    between rows.  Returns False, leaving the range unfinished, at a zero
    uniform, which unit_exponentials would redraw."""
    skip = log_z.shape[1] - (c1 - c0)
    for i, lr in enumerate(log_rate):
        if i:
            gen.bit_generator.advance(skip)
        cols = log_z[i, c0:c1]
        gen.random(out=cols)
        if cols.min() == 0.0:
            return False
        np.negative(cols, out=cols)
        np.log1p(cols, out=cols)
        np.negative(cols, out=cols)
        np.log(cols, out=cols)
        cols -= lr
    return True


def _log_timers(stream: RngStream, log_rate: np.ndarray,
                block: np.ndarray) -> np.ndarray:
    """ln Z_i = ln E_i - log_rate_i of block.shape[1] contentions, one row
    per source, written over the first len(log_rate) rows of block and
    returned as a view of them.  Row i holds source i's
    unit_exponentials, as if drawn one row after another; a check passes
    the same block to every state, so it holds one block of timers.

    The columns are split into one range per usable core.  Each range is
    filled row by row, while it is in cache, from its own generator
    jumped ahead to the range's offset in every row, the calling thread
    filling the first, so the values do not depend on the core count.  A
    zero uniform anywhere moves the stream back and refills the rows one
    after another through unit_exponentials, whose redraw shifts every
    later draw.
    """
    log_rate = np.asarray(log_rate, dtype=float)
    if (block.dtype != np.float64 or block.ndim != 2
            or not block.flags.c_contiguous or len(block) < len(log_rate)):
        raise ParameterError(
            f"timers of {log_rate.shape} rates need a C-contiguous float64 "
            f"block with at least {len(log_rate)} rows, got a "
            f"{'' if block.flags.c_contiguous else 'non-contiguous '}"
            f"{block.dtype} block of shape {block.shape}")
    log_z = block[:len(log_rate)]
    rates = log_rate.tolist()
    samples = log_z.shape[1]
    workers = _worker_count()
    cuts = [samples * k // workers for k in range(workers + 1)]
    ranges = [(c0, c1) for c0, c1 in zip(cuts, cuts[1:]) if c0 < c1]
    gens = stream.jump_ahead([c0 for c0, _ in ranges], log_z.size)
    jobs = [_executor(workers - 1).submit(_fill_columns, gen, rates, log_z,
                                          *cols)
            for gen, cols in zip(gens[1:], ranges[1:])]
    try:
        clean = not ranges or _fill_columns(gens[0], rates, log_z,
                                            *ranges[0])
    finally:
        # no thread may still write into the block once this returns
        done = [job.result() for job in jobs]
    if not (clean and all(done)):
        stream.jump_ahead((), -log_z.size)
        for row, lr in zip(log_z, rates):
            row[:] = stream.unit_exponentials(samples)
            np.log(row, out=row)
            row -= lr
    return log_z


def _win_counts(log_z: np.ndarray) -> np.ndarray:
    """np.bincount(np.argmin(log_z, axis=0), minlength=len(log_z)): per
    row, the number of columns whose first minimum it holds.

    Each row counts its entries equal to their column's minimum: one
    reduction per row, where argmin reduces one column at a time.  A
    column with a tied minimum counts in every tied row and a NaN column
    in none, so the counts then miss the column count and argmin's
    first-index rule recounts every column.  (A tie and a NaN column
    could cancel out; the checks' timers are finite.)
    """
    low = log_z.min(axis=0)
    counts = np.array([np.count_nonzero(row == low) for row in log_z])
    if counts.sum() != log_z.shape[1]:
        counts = np.bincount(np.argmin(log_z, axis=0), minlength=len(log_z))
    return counts


# ---------------------------------------------------------------------------
# Per-frame match with the centralized argmax rules
# ---------------------------------------------------------------------------

def _match_check(name: str, states, trials: int, n: int, delta: float,
                 alpha: float | None) -> CheckResult:
    """Closed-form contention mass on the argmax set is at least 1 - delta
    at every state; states(rows) draws the exponents of rows states."""
    if alpha is None:
        alpha = match_alpha_threshold(n, delta)
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
    stream = _state_stream(seed, trials=trials, n=n)

    def states(rows: int) -> np.ndarray:
        ages = 1 + stream.integers(20, (rows, n))
        return aoi_exponents(ages, 1 + stream.integers(5, (rows, n)))
    return _match_check("max-weight match probability", states, trials, n,
                        delta, alpha)


def check_max_aoii_match(trials: int = 10_000, n: int = 10,
                         delta: float = 0.1, alpha: float | None = None,
                         seed: int = DEFAULT_SEED) -> CheckResult:
    """Same guarantee with integer mismatch ages as the exponents."""
    stream = _state_stream(seed, trials=trials, n=n)
    return _match_check("max-mismatch-age match probability",
                        lambda rows: stream.integers(30, (rows, n)), trials, n,
                        delta, alpha)


# ---------------------------------------------------------------------------
# Closed-form win distribution against sampled contention
# ---------------------------------------------------------------------------

def check_winner_distribution(trials: int = 20, samples: int = 100_000,
                              seed: int = DEFAULT_SEED) -> CheckResult:
    """Empirical winner frequencies of the idealized contention match the
    closed-form distribution within 3 Monte Carlo standard errors."""
    stream = _state_stream(seed, trials=trials, samples=samples)
    grid = [(n, alpha) for n in (2, 5, 10) for alpha in (1.1, 2.0, 9.0)]
    block = np.empty((max(n for n, _ in grid), samples))
    worst = math.inf
    for s in range(trials):
        n, alpha = grid[s % len(grid)]
        ages = np.array([1 + stream.integer(8) for _ in range(n)])
        exponent = aoi_exponents(ages, np.ones(n))
        probs = scheduling_probabilities(alpha, exponent)
        log_z = _log_timers(stream, exponent * math.log(alpha), block)
        wins = _win_counts(log_z) / samples
        stderr = np.sqrt(probs * (1.0 - probs) / samples)
        margin = float((3.0 * stderr - np.abs(wins - probs)).min())
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
    stream = _state_stream(seed, trials=trials, n=n)
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

def check_distinct_timer_bound(samples: int = 100_000,
                               seed: int = DEFAULT_SEED) -> CheckResult:
    """Monte Carlo P(distinct minislot timers) respects its closed-form
    lower bound on a (rate, beta, B) grid, and the bound's directional
    terms are non-decreasing in B."""
    stream = _state_stream(seed, samples=samples)
    log_rates = (0.0, 10.0, 20.0)
    betas = (1.1, 1.5, 2.0)
    b_grid = (0, 10, 250)
    block = np.empty((2, samples))
    worst = math.inf
    cells = 0
    for lri in log_rates:
        for lrj in log_rates:
            for beta in betas:
                prev = -math.inf
                for b in b_grid:
                    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b)
                    log_z = _log_timers(stream, (lri, lrj), block)
                    # keys, then minislots, overwrite the timers
                    d = minislots(key_of(log_z, params, discrete=True,
                                         out=log_z), b, out=log_z)
                    distinct = int(np.count_nonzero(d[0] != d[1]))
                    # Laplace-smoothed, so the error cannot vanish when
                    # every pair lands on the same side
                    p_smooth = (distinct + 1) / (samples + 2)
                    stderr = math.sqrt(p_smooth * (1.0 - p_smooth) / samples)
                    bound = distinct_timer_bound(lri, lrj, params)
                    worst = min(worst, distinct / samples
                                - (bound - 3.0 * stderr))
                    psi = timer_separation_term(b, beta, lri, lrj)
                    # 1e-15 absorbs ulp-level rounding where psi is ~0
                    worst = min(worst, psi - prev + 1e-15)
                    prev = psi
                    cells += 1
    return CheckResult(name="distinct-timer lower bound", ok=worst >= 0.0,
                       worst_margin=worst, trials=cells,
                       detail=f"{samples} timer pairs per cell, margin = "
                              "min(MC slack, B-monotonicity step)")


# ---------------------------------------------------------------------------
# Idle-time bound
# ---------------------------------------------------------------------------

def check_idle_time_bound(trials: int = 10, samples: int = 100_000,
                          n: int = 10, seed: int = DEFAULT_SEED) -> CheckResult:
    """Sampled mean winning timer stays below the closed-form idle-time
    bound at random states."""
    stream = _state_stream(seed, least_n=1, trials=trials, samples=samples,
                           n=n)
    block = np.empty((n, samples))
    low = np.empty(samples)
    worst = math.inf
    for _ in range(trials):
        ages = np.array([1 + stream.integer(10) for _ in range(n)])
        weights = np.ones(n)
        params = BackoffParams(alpha=1.2, beta=1.0 + 0.1 + 0.4 * stream.uniform(),
                               b_offset=200 + stream.integer(100))
        log_z = _log_timers(stream, aoi_exponents(ages, weights)
                            * params.ln_alpha, block)
        # the grid map is monotone, so the winning minislot is the
        # minimum timer's; its key, then its minislot, overwrite it
        log_z.min(axis=0, out=low)
        key = key_of(low, params, discrete=True, out=low)
        mean_d = float(minislots(key, params.b_offset, out=low).mean())
        bound = overhead_upper_bound(ages, weights, params, minislots=True)
        worst = min(worst, bound - mean_d)
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
