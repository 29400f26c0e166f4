"""Reference engine: one frame at a time, for checking engine.run.

This is the frame loop that engine.run's block kernel replaced, kept
as the definition the kernel must reproduce field by field and trace
byte by byte.  Every frame forms its exponents and contention keys from
the current state, resolves them through a mask of tied sources and
advances every age by one step; Markov sources flip by one uniforms(n)
draw per frame.  It shares only the stream layout, the rule table and
the per-source formulas with the kernel; its argmax rule and its
contention resolution are its own, written through the mask of tied
sources.

It also holds the sampled verify checks' per-state statistics, drawn
state after state: each state's parameters in the check's order, then
its rows one after another from the stream's uniforms, reduced with
plain numpy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from aoisim.core import BackoffParams, NetworkConfig, ParameterError, RngStream
from aoisim.engine import SimulationResult, substreams
from aoisim.policies import (
    RULES,
    PolicyKind,
    aoi_exponents,
    exponents,
    key_of,
    minislots,
    stationary_randomized_probs,
)

_BLOCK = 1024


@dataclass
class AgeState:
    """Per-source ages and their running sums over the frames so far.

    frame_age counts whole frames since the last delivered update (>= 1:
    a delivery resets to 1), as a float array of exact integers.
    clock_age measures wall-clock time units and only moves in the
    near-realistic model.  frame_age_sum adds up the ages entering each
    frame, clock_age_integral the clock ages at each frame start times
    the frame's duration.
    """

    frame_age: np.ndarray
    clock_age: np.ndarray
    frame_age_sum: np.ndarray
    clock_age_integral: np.ndarray

    @classmethod
    def initial(cls, n_sources: int) -> "AgeState":
        return cls(frame_age=np.ones(n_sources), clock_age=np.ones(n_sources),
                   frame_age_sum=np.zeros(n_sources),
                   clock_age_integral=np.zeros(n_sources))


@dataclass
class MarkovNetState:
    """Symmetric two-state Markov sources and the monitor's view of them.

    Each source flips with probability q per frame, one uniforms(n) draw
    of stream per frame.  aoii counts frames since the estimate last
    matched the true state and aoii_sum adds it up over the frames.
    """

    q: np.ndarray
    x_true: np.ndarray
    x_est: np.ndarray
    aoii: np.ndarray
    stream: RngStream
    aoii_sum: np.ndarray = field(init=False)

    def __post_init__(self):
        self.q = np.broadcast_to(np.asarray(self.q, dtype=float),
                                 (len(self.aoii),)).copy()
        self.x_true = np.array(self.x_true, dtype=bool)
        self.x_est = np.array(self.x_est, dtype=bool)
        self.aoii = np.array(self.aoii, dtype=float)
        self.aoii_sum = np.zeros(len(self.aoii))

    @classmethod
    def initial(cls, q, n_sources: int, stream: RngStream) -> "MarkovNetState":
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.shape not in ((1,), (n_sources,)):
            raise ParameterError(f"bad transition probability shape {q.shape}")
        if not np.all((q >= 0) & (q <= 1)):
            raise ParameterError(f"transition probabilities must be in [0,1], got {q}")
        zeros = np.zeros(n_sources)
        return cls(q=q, x_true=zeros, x_est=zeros, aoii=zeros, stream=stream)


def _timer_rows(sources):
    """ln E per frame from _BLOCK draws per source at a time."""
    log_e = np.empty((len(sources), _BLOCK))
    while True:
        for s, row in zip(sources, log_e):
            s.log_exponentials(row)
        yield from log_e.T


def contention_keys(log_e: np.ndarray, log_rate, params: BackoffParams,
                    discrete: bool) -> np.ndarray:
    """Comparison keys of one contention: key_of the ln-timers
    ln Z_i = ln E_i - log_rate_i, formed in log domain so that rates
    beyond float range still compare correctly."""
    return key_of(np.subtract(log_e, log_rate), params, discrete)


def argmax_decide(exponent: np.ndarray, stream: RngStream) -> int:
    """The argmax of the exponent; when the mask of sources equal to it
    has two or more members, one of them is drawn uniformly."""
    j = int(exponent.argmax())
    top = exponent == exponent[j]
    ties = np.count_nonzero(top)
    if ties == 1:
        return j
    return int(np.flatnonzero(top)[stream.integer(ties)])


def resolve(key: np.ndarray, grid: BackoffParams | None = None):
    """Resolve one contention from its keys through the mask of ties.

    Returns the delivered source (None on a collision), the mask of
    sources tied at the minimum and the winning minislot (None in the
    idealized model, grid None).
    """
    j = int(key.argmin())
    if grid is None:
        tied = key == key[j]
        slot = None
    else:
        b = grid.b_offset
        k = float(key[j])
        floor_k = -b if k < -b else math.floor(k)
        slot = b + floor_k
        tied = key < floor_k + 1.0
    return (None if np.count_nonzero(tied) > 1 else j), tied, slot


def advance(ages: AgeState, markov: MarkovNetState | None,
            delivered: int | None, duration: float | None = None) -> None:
    """Advance the state and its running sums in place over one frame.

    duration None is an idealized unit frame.  Markov sources flip
    within the frame, so a delivery carries the post-flip state.
    """
    ages.frame_age_sum += ages.frame_age
    ages.frame_age += 1
    if delivered is not None:
        ages.frame_age[delivered] = 1
    if duration is not None:
        ages.clock_age_integral += ages.clock_age * duration
        ages.clock_age += duration
        if delivered is not None:
            ages.clock_age[delivered] = duration
    if markov is not None:
        markov.x_true = markov.x_true ^ (markov.stream.uniforms(len(markov.q))
                                         < markov.q)
        if delivered is not None:
            markov.x_est[delivered] = markov.x_true[delivered]
        markov.aoii += 1
        markov.aoii[markov.x_true == markov.x_est] = 0
        markov.aoii_sum += markov.aoii


def frame_step(ages: AgeState, markov: MarkovNetState | None,
               key: np.ndarray, grid: BackoffParams | None = None):
    """resolve() one contention frame and advance(); returns
    (delivered, tied, slot, duration)."""
    delivered, tied, slot = resolve(key, grid)
    duration = (None if grid is None
                else 1.0 + slot / grid.minislots_per_update)
    advance(ages, markov, delivered, duration)
    return delivered, tied, slot, duration


def run(config: NetworkConfig, kind: PolicyKind,
        params: BackoffParams | None = None, *,
        prefix: tuple[int, ...] = (),
        markov_q=None,
        horizon_unit: str = "frames",
        max_frames: int | None = None,
        trace: IO[str] | None = None) -> SimulationResult:
    """engine.run, one frame at a time (arguments already validated)."""
    rule = RULES[kind]
    contention = rule.decide == "contention"
    n = config.n_sources
    w = config.weights_array
    engine_stream, decision, sources = substreams(config.seed, prefix, kind, n)
    ages = AgeState.initial(n)
    markov = (None if markov_q is None
              else MarkovNetState.initial(markov_q, n, engine_stream))
    if rule.decide == "randomized":
        cdf = np.cumsum(stationary_randomized_probs(config.weights)).tolist()
    if contention:
        timer_rows = _timer_rows(sources)
        ln_alpha = params.ln_alpha
        grid = params if rule.discrete else None

    target = config.horizon_frames
    by_deliveries = horizon_unit == "deliveries"
    cap = (target if not by_deliveries
           else 100 * target if max_frames is None else max_frames)

    frames = deliveries = overhead_minislots = 0
    elapsed = 0.0
    while (deliveries if by_deliveries else frames) < target:
        if frames >= cap:
            raise RuntimeError(f"frame cap {cap} reached")
        exponent = exponents(rule.signal, ages.frame_age, w,
                             None if markov is None else markov.aoii)
        if contention:
            log_e = next(timer_rows)
            log_rate = exponent * ln_alpha
            key = contention_keys(log_e, log_rate, params, rule.discrete)
            delivered, tied, slot, duration = frame_step(ages, markov, key,
                                                         grid)
        else:
            delivered = (argmax_decide(exponent, decision)
                         if rule.decide == "argmax"
                         else min(bisect.bisect_right(cdf, decision.uniform()),
                                  n - 1))
            slot = duration = None
            advance(ages, markov, delivered)

        d = 1.0 if duration is None else duration
        frames += 1
        elapsed += d
        if delivered is not None:
            deliveries += 1
        if slot is not None:
            overhead_minislots += slot
        if trace is not None:
            if not contention:
                winners, timer = [delivered], 0.0
            else:
                winners = np.flatnonzero(tied).tolist()
                if rule.discrete:
                    timer = slot
                else:
                    timer = float(np.exp(log_e - log_rate)[winners[0]])
            trace.write(f"frame={frames} min_timer={timer:g} "
                        f"winners={','.join(map(str, winners))} "
                        f"collided={int(delivered is None)} "
                        f"delivered={'-' if delivered is None else delivered} "
                        f"duration={d:.6f}\n")

    frame_mean = ages.frame_age_sum / frames
    per_source = (ages.clock_age_integral / elapsed if rule.discrete
                  else frame_mean)
    return SimulationResult(
        policy=kind,
        normalized_weighted_avg_aoi=float((w * per_source).sum() / n),
        per_source_avg_aoi=tuple(float(x) for x in per_source),
        per_source_avg_frame_aoi=tuple(float(x) for x in frame_mean),
        normalized_avg_aoii=(float(markov.aoii_sum.mean() / frames)
                             if markov is not None else None),
        collision_rate=(frames - deliveries) / frames,
        avg_overhead_minislots=overhead_minislots / frames,
        frame_count=frames,
        delivery_count=deliveries,
        elapsed_time=elapsed,
        config=config,
        params=params,
    )


def stream_with_zero_at(j: int, seed: int = 8) -> RngStream:
    """A stream whose j-th next bulk uniform is 0.0: PCG64 outputs the
    xor of its state's halves, rotated, so a zero state outputs 0, and the
    generator steps before each output."""
    stream = RngStream(seed)
    bits = stream._gen.bit_generator
    state = bits.state
    state["state"]["state"] = 0
    bits.state = state
    bits.advance(-(j + 1))
    return stream


# ---------------------------------------------------------------------------
# Sampled verify checks, one state after another
# ---------------------------------------------------------------------------

def log_timers(stream: RngStream, log_rate, samples: int) -> np.ndarray:
    """ln E_i - log_rate_i, one row of samples per source, the rows drawn
    one after another as stream.uniforms(samples), with E = -log1p(-u)
    through numpy's log1p; a zero uniform is E = 0, ln E = -inf."""
    with np.errstate(divide="ignore"):
        return np.array([np.log(-np.log1p(-stream.uniforms(samples))) - lr
                         for lr in log_rate]).reshape(len(log_rate), samples)


def winner_counts(stream: RngStream, samples: int, trials: int = 20):
    """lemma1's statistic per state: each source's count of the columns
    whose first minimum it holds."""
    grid = [(n, alpha) for n in (2, 5, 10) for alpha in (1.1, 2.0, 9.0)]
    for s in range(trials):
        n, alpha = grid[s % len(grid)]
        ages = np.array([1 + stream.integer(8) for _ in range(n)])
        log_z = log_timers(stream, aoi_exponents(ages, np.ones(n))
                           * math.log(alpha), samples)
        yield np.bincount(np.argmin(log_z, axis=0), minlength=n)


def distinct_minislot_counts(stream: RngStream, samples: int):
    """thm3's statistic per (rate, rate, beta, B) cell: the columns whose
    two timers land in different minislots."""
    for lri in (0.0, 10.0, 20.0):
        for lrj in (0.0, 10.0, 20.0):
            for beta in (1.1, 1.5, 2.0):
                for b in (0, 10, 250):
                    params = BackoffParams(alpha=2.0, beta=beta, b_offset=b)
                    d = minislots(key_of(log_timers(stream, (lri, lrj), samples),
                                         params, discrete=True), b)
                    yield int(np.count_nonzero(d[0] != d[1]))


def minimum_slot_sums(stream: RngStream, samples: int, trials: int = 10,
                      n: int = 10):
    """thm4's statistic per state: the sum over columns of the smallest
    of the sources' minislots."""
    for _ in range(trials):
        ages = np.array([1 + stream.integer(10) for _ in range(n)])
        params = BackoffParams(alpha=1.2, beta=1.0 + 0.1 + 0.4 * stream.uniform(),
                               b_offset=200 + stream.integer(100))
        log_z = log_timers(stream, aoi_exponents(ages, np.ones(n))
                           * params.ln_alpha, samples)
        slots = minislots(key_of(log_z, params, discrete=True), params.b_offset)
        yield float(slots.min(axis=0).sum())
