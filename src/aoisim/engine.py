"""Frame-by-frame network evolution under a chosen scheduling rule.

Every frame works the same way.  A centralized rule schedules one
source.  Under contention each source draws an exponential timer at
rate alpha**e_i and the frame is resolved by policies.resolve, which
holds the contention rule and the minislot grid of the near-realistic
model.  Here the two channel models differ only in frame length:
near-realistic frames last 1 + D/M time units, where the winning
minislot D is the idle head charged as backoff overhead; idealized
frames last one unit.  Markov two-state sources can be layered on
either model to drive mismatch-age (AoII) scheduling.

run() steps through the frames in blocks of _FRAMES.  Between deliveries
every frame age grows by one and every mismatch age follows its source's
true states against an estimate that does not move, so at a block's
start the exponents and contention keys of all its frames are formed at
once, as if nobody delivered.  A delivery changes the delivered source's
state only, so it patches that source's column for the rest of the
block; each frame is then resolved from its row alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .core import BackoffParams, NetworkConfig, ParameterError, RngStream
from .policies import (
    RULES,
    PolicyKind,
    aoi_exponents,
    argmax_decide,
    contention_keys,
    exponents,
    minislots,
    resolve,
    stationary_randomized_probs,
)

# Frames of timer and Markov draws fetched per refill, and frames per
# kernel block, a row slice of a refill (so _FRAMES divides _BLOCK);
# neither changes a draw.
_BLOCK = 1024
_FRAMES = 64


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one run.

    per_source_avg_aoi is the reported age average: the plain frame mean
    in the idealized model, the duration-weighted mean of the wall-clock
    age sampled at frame starts in the near-realistic model
    (per_source_avg_frame_aoi carries the frame-count mean in both).
    normalized_weighted_avg_aoi is (1/N) sum_i w_i * avg_i.
    """

    policy: PolicyKind
    normalized_weighted_avg_aoi: float
    per_source_avg_aoi: tuple[float, ...]
    per_source_avg_frame_aoi: tuple[float, ...]
    normalized_avg_aoii: float | None
    collision_rate: float
    avg_overhead_minislots: float
    frame_count: int
    delivery_count: int
    elapsed_time: float
    config: NetworkConfig
    params: BackoffParams | None
    seed: int


def substreams(seed: int, prefix: tuple[int, ...], kind: PolicyKind,
               n_sources: int) -> tuple[RngStream, RngStream, list[RngStream]]:
    """The streams of one run: (engine, decision, per-source timers).

    Under (seed, prefix) the engine owns prefix + (0,) and the policy
    owns prefix + (1, k), k being kind's position in PolicyKind.  The
    policy's decision stream is its child (0,) and source i's timer
    stream its child (1 + i,); only contention kinds get timer streams.
    Adding a policy, source or replication never shifts another's draws.
    """
    policy = prefix + (1, list(PolicyKind).index(kind))
    contention = RULES[kind].decide == "contention"
    return (RngStream(seed, prefix + (0,)), RngStream(seed, policy + (0,)),
            [RngStream(seed, policy + (1 + i,))
             for i in range(n_sources if contention else 0)])


# ---------------------------------------------------------------------------
# Draw blocks
# ---------------------------------------------------------------------------

def _transition_probs(q, n_sources: int) -> np.ndarray:
    """One flip probability per source from one value or n_sources."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape not in ((1,), (n_sources,)):
        raise ParameterError(f"need one transition probability or "
                             f"{n_sources}, got shape {q.shape}")
    if not np.all((q >= 0) & (q <= 1)):
        raise ParameterError(f"transition probabilities must be in [0,1], got {q}")
    return np.broadcast_to(q, (n_sources,)).copy()


def _trajectory(q: np.ndarray, x_start: np.ndarray,
                stream: RngStream) -> Iterator[np.ndarray]:
    """The true states of the frames after x_start, _BLOCK rows at a time.

    Each block draws every flip as uniforms((_BLOCK, n)) < q, which
    continues the stream exactly as one uniforms(n) per frame would,
    and XOR-accumulates the flips down the frames onto the state the
    block starts from.  The next refill overwrites the block.
    """
    states = np.empty((_BLOCK, len(q)), dtype=bool)
    start = np.array(x_start, dtype=bool)
    while True:
        flips = stream.uniforms(states.shape) < q
        np.bitwise_xor.accumulate(flips, axis=0, out=states)
        states ^= start
        yield states
        start = states[-1].copy()


def _timer_blocks(sources: list[RngStream]) -> Iterator[np.ndarray]:
    """ln E, _BLOCK frames at a time: one exp(1) draw per source and
    frame, with ln applied once per block in place.  The next refill
    overwrites it."""
    log_e = np.empty((_BLOCK, len(sources)))
    while True:
        for i, s in enumerate(sources):
            log_e[:, i] = s.exponential_sequence(_BLOCK)
        np.log(log_e, out=log_e)
        yield log_e


def _mismatch_ages(x: np.ndarray, x_before: np.ndarray, run: np.ndarray,
                   x_est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch ages over a block of true states x, one row per frame.

    x_before is the state entering the block, held for the last run
    frames.  A source's mismatch age is the length of its current run of
    equal states while that state differs from the estimate and 0 while
    it matches: states are binary, so a run that mismatches began after
    the last match.  Returns the ages, shape (3, k + 1, n), and the run
    lengths after each frame, shape (k, n).  Row 0 of the ages holds
    those entering the block and row r + 1 those after frame r.  Layer
    2 holds them under the estimates x_est; layer v in {0, 1} holds them
    for an estimate of v, which is exact from any frame whose true state
    is v on, so it is the delivered source's column after a delivery
    there.
    """
    k = len(x)
    rows = np.arange(k)[:, None]
    changed = np.empty_like(x)
    np.not_equal(x[0], x_before, out=changed[0])
    np.not_equal(x[1:], x[:-1], out=changed[1:])
    # Frame each run started at; a run entering the block started run
    # frames before it.
    start = np.where(changed, rows, -run)
    np.maximum.accumulate(start, axis=0, out=start)
    length = rows + 1 - start
    ages = np.empty((3, k + 1, x.shape[1]))
    ages[:, 0] = (x_before != x_est) * run
    np.multiply(x, length, out=ages[0, 1:])
    np.multiply(~x, length, out=ages[1, 1:])
    np.multiply(x != x_est, length, out=ages[2, 1:])
    return ages, length


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def run(config: NetworkConfig, kind: PolicyKind,
        params: BackoffParams | None = None, *,
        prefix: tuple[int, ...] = (),
        markov_q: "float | np.ndarray | None" = None,
        horizon_unit: str = "frames",
        max_frames: int | None = None,
        trace: IO[str] | None = None) -> SimulationResult:
    """Simulate config.horizon_frames frames (or delivered updates) of
    kind's rule and return time-averaged metrics.

    Draws come from substreams(config.seed, prefix, ...); experiments
    pass prefix (rep,) per replication.  horizon_unit="deliveries" runs
    until config.horizon_frames updates have been delivered, so
    collision-prone configurations are compared at equal useful work; a
    frame cap (max_frames, at least 1, default 100x the target) turns a
    non-delivering configuration into an error instead of a hang.  A
    frames horizon takes no cap.  trace, if given, receives one line per
    frame, whose min_timer is the winner's key read back as a timer: its
    minislot on the grid, delta * Z in the idealized model.
    """
    if horizon_unit not in ("frames", "deliveries"):
        raise ParameterError(f"unknown horizon_unit {horizon_unit!r}")
    if horizon_unit == "frames" and max_frames is not None:
        raise ParameterError("max_frames caps a deliveries horizon; "
                             "a frames horizon is its own cap")
    if max_frames is not None and max_frames < 1:
        raise ParameterError(f"max_frames must be >= 1, got {max_frames}")
    if kind not in RULES:
        raise ParameterError(f"unknown policy kind {kind!r}")
    decide, signal, discrete = RULES[kind]
    contention = decide == "contention"
    if contention and params is None:
        raise ParameterError(f"{kind.value} needs backoff parameters")
    if signal == "aoii" and markov_q is None:
        raise ParameterError(f"{kind.value} needs Markov sources "
                             "(markov_q) to compute mismatch ages")

    n = config.n_sources
    w = config.weights_array
    engine_stream, decision, sources = substreams(config.seed, prefix, kind, n)
    # The AoI exponent w_i * a**2 of frame age a, in row a: the delivered
    # source's column for the rest of a block.
    age_table = aoi_exponents(np.arange(_FRAMES)[:, None], w)
    patch_exponent = signal == "frame_age" and decide == "argmax"
    if contention:
        timers = _timer_blocks(sources)
        log_rate_table = age_table * params.ln_alpha
        b_offset = params.b_offset if discrete else None
        slots_per_update = params.minislots_per_update
    if markov_q is not None:
        states = _trajectory(_transition_probs(markov_q, n), np.zeros(n),
                             engine_stream)
        # Every source starts in state 0, matched by its estimate, so the
        # length of that first run never shows.
        x_before, x_est = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        run = np.ones(n)
        aoii_sum = np.zeros(n)
    if decide == "randomized":
        cdf = np.cumsum(stationary_randomized_probs(config.weights)).tolist()
    if discrete:
        # Wall-clock ages sampled at frame starts, weighted by the frame's
        # duration: their rounding depends on the path, so they move
        # frame by frame.
        clock_age = np.ones(n)
        clock_age_integral = np.zeros(n)

    target = config.horizon_frames
    by_deliveries = horizon_unit == "deliveries"
    cap = (target if not by_deliveries
           else 100 * target if max_frames is None else max_frames)
    # Frame of each source's last delivery (-1 before the first: ages
    # start at 1) and the frame ages summed over its closed intervals.
    last = [-1] * n
    frame_age_sum = [0] * n

    frames = deliveries = overhead_minislots = 0
    elapsed = 0.0
    while (deliveries if by_deliveries else frames) < target:
        if frames >= cap:
            raise RuntimeError(
                f"frame cap {cap} reached with only {deliveries} "
                f"of {target} deliveries; the configuration is not delivering")
        offset = frames % _BLOCK
        if offset == 0:
            if contention:
                log_e_block = next(timers)
            if markov_q is not None:
                x_block = next(states)
        block = slice(offset, offset + _FRAMES)

        # The block as if nobody delivered: frame ages grow by one per
        # row, mismatch ages follow the trajectory.  AoII kinds carry
        # the keys of both estimates alongside, in layers 0 and 1.
        age = (np.arange(frames, frames + _FRAMES)[:, None]
               - np.array(last)) if signal == "frame_age" else None
        if markov_q is not None:
            x = x_block[block]
            mismatch, runs = _mismatch_ages(x, x_before, run, x_est)
            aoii_now = mismatch[2]
        exponent = exponents(signal, age, w,
                             mismatch[:, :_FRAMES] if signal == "aoii" else None)
        if contention:
            log_e = log_e_block[block]
            key = contention_keys(log_e, exponent * params.ln_alpha, params,
                                  discrete)
            key_now = key[2] if signal == "aoii" else key
        exponent_now = exponent[2] if signal == "aoii" else exponent

        first = frames
        rows = min(_FRAMES, cap - frames)
        for r in range(rows):
            if contention:
                delivered, slot = resolve(key_now[r], b_offset)
                duration = (1.0 if slot is None
                            else 1.0 + slot / slots_per_update)
            else:
                delivered = (argmax_decide(exponent_now[r], decision)
                             if decide == "argmax"
                             else min(bisect.bisect_right(cdf, decision.uniform()),
                                      n - 1))
                slot, duration = None, 1.0
            if discrete:
                clock_age_integral += clock_age * duration
                clock_age += duration
            frames += 1
            elapsed += duration
            if slot is not None:
                overhead_minislots += slot
            if delivered is not None:
                deliveries += 1
                j = delivered
                t = first + r
                m = t - last[j]
                frame_age_sum[j] += m * (m + 1) // 2
                last[j] = t
                if discrete:
                    # The delivered update was generated at the frame
                    # start, so the monitor's information is exactly one
                    # frame-duration old.
                    clock_age[j] = duration
                rest = slice(r + 1, _FRAMES)
                if signal == "frame_age":
                    ahead = slice(1, _FRAMES - r)
                    if contention:
                        contention_keys(log_e[rest, j],
                                        log_rate_table[ahead, j], params,
                                        discrete, out=key[rest, j])
                    if patch_exponent:
                        exponent[rest, j] = age_table[ahead, j]
                if markov_q is not None:
                    # Markov sources flip within the frame, so a delivery
                    # carries the post-flip state.
                    v = int(x[r, j])
                    x_est[j] = v
                    mismatch[2, r + 1:, j] = mismatch[v, r + 1:, j]
                    if contention and signal == "aoii":
                        key[2, rest, j] = key[v, rest, j]
            if trace is not None:
                if not contention:
                    winners, timer = [delivered], 0.0
                else:
                    row = key_now[r]
                    k = row.min()
                    tied = (row == k if slot is None
                            else minislots(row, b_offset) == slot)
                    winners = np.flatnonzero(tied).tolist()
                    timer = math.exp(k) if slot is None else slot
                trace.write(f"frame={frames} min_timer={timer:g} "
                            f"winners={','.join(map(str, winners))} "
                            f"collided={int(delivered is None)} "
                            f"delivered={'-' if delivered is None else delivered} "
                            f"duration={duration:.6f}\n")
            if by_deliveries and deliveries == target:
                break

        if markov_q is not None:
            done = frames - first
            aoii_sum += aoii_now[1:done + 1].sum(axis=0)
            x_before, run = x[done - 1].copy(), runs[done - 1]

    frame_mean = np.array([s + (frames - l) * (frames - 1 - l) // 2
                           for s, l in zip(frame_age_sum, last)],
                          dtype=float) / frames
    per_source = (clock_age_integral / elapsed if discrete else frame_mean)
    normalized = float((w * per_source).sum() / n)
    aoii_mean = (float(aoii_sum.mean() / frames)
                 if markov_q is not None else None)

    return SimulationResult(
        policy=kind,
        normalized_weighted_avg_aoi=normalized,
        per_source_avg_aoi=tuple(float(x) for x in per_source),
        per_source_avg_frame_aoi=tuple(float(x) for x in frame_mean),
        normalized_avg_aoii=aoii_mean,
        collision_rate=(frames - deliveries) / frames,
        avg_overhead_minislots=overhead_minislots / frames,
        frame_count=frames,
        delivery_count=deliveries,
        elapsed_time=elapsed,
        config=config,
        params=params,
        seed=config.seed,
    )
