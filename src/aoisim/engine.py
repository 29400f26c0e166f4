"""Frame-by-frame network evolution under a chosen scheduling rule.

Every frame works the same way.  A centralized rule schedules one
source.  Under contention each source draws an exponential timer at
rate alpha**e_i, the smallest timer wins and equal minima collide.  The
two channel models differ in two places only: the near-realistic model
compares timers after mapping them onto the log-beta minislot grid, and
its frames last 1 + D/M time units, where the winning minislot D is the
idle head charged as backoff overhead; idealized frames last one unit.
Markov two-state sources can be layered on either model to drive
mismatch-age (AoII) scheduling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .core import (
    AgeState,
    BackoffParams,
    NetworkConfig,
    ParameterError,
    RngStream,
)
from .policies import (
    RULES,
    PolicyKind,
    argmax_decide,
    contention_keys,
    exponents,
    stationary_randomized_probs,
)

# Frames of timer and Markov draws fetched per refill; the draws do not
# depend on it.
_BLOCK = 1024


def _trajectory(q: np.ndarray, x_start: np.ndarray,
                stream: RngStream) -> Iterator[np.ndarray]:
    """The true states of the frames after x_start, one row per frame.

    Each block draws every flip as uniforms((_BLOCK, n)) < q, which
    continues the stream exactly as one uniforms(n) per frame would,
    and XOR-accumulates the flips down the frames onto the state the
    block starts from.  Rows are views that the next refill overwrites.
    """
    states = np.empty((_BLOCK, len(q)), dtype=bool)
    start = np.array(x_start, dtype=bool)
    while True:
        flips = stream.uniforms(states.shape) < q
        np.bitwise_xor.accumulate(flips, axis=0, out=states)
        states ^= start
        yield from states
        start = states[-1].copy()


@dataclass
class MarkovNetState:
    """Symmetric two-state Markov sources and the monitor's view of them.

    Each source flips with probability q per frame.  The true states do
    not depend on scheduling, so trajectory draws them ahead from stream
    in blocks of frames and yields one row per frame, continuing from
    x_true; advance() moves x_true to the next row.  aoii counts frames
    since the estimate last matched the true state; it is zero exactly
    while they agree and grows by one per frame of sustained mismatch.
    aoii_sum adds it up over the frames so far.
    """

    q: np.ndarray
    x_true: np.ndarray
    x_est: np.ndarray
    aoii: np.ndarray
    stream: RngStream
    aoii_sum: np.ndarray = field(init=False)
    trajectory: Iterator[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.x_true = np.asarray(self.x_true, dtype=bool)
        self.x_est = np.array(self.x_est, dtype=bool)
        self.aoii = np.array(self.aoii, dtype=float)
        self.aoii_sum = np.zeros(len(self.aoii))
        self.trajectory = _trajectory(self.q, self.x_true, self.stream)

    @classmethod
    def initial(cls, q, n_sources: int, stream: RngStream) -> "MarkovNetState":
        """All sources start in state 0, matched; q is one probability or
        one per source."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.shape not in ((1,), (n_sources,)):
            raise ParameterError(f"need one transition probability or "
                                 f"{n_sources}, got shape {q.shape}")
        if not np.all((q >= 0) & (q <= 1)):
            raise ParameterError(f"transition probabilities must be in [0,1], got {q}")
        zeros = np.zeros(n_sources)
        return cls(q=np.broadcast_to(q, (n_sources,)).copy(), x_true=zeros,
                   x_est=zeros, aoii=zeros, stream=stream)


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


def _timer_rows(sources: list[RngStream]
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(E, ln E) per frame: one exp(1) draw per source, refilled in
    blocks, with ln applied once per block.

    Each row is a view into the block, which the next refill overwrites.
    """
    e = np.empty((_BLOCK, len(sources)))
    log_e = np.empty_like(e)
    while True:
        for i, s in enumerate(sources):
            e[:, i] = s.exponential_sequence(_BLOCK)
        np.log(e, out=log_e)
        yield from zip(e, log_e)


# ---------------------------------------------------------------------------
# Single frames
# ---------------------------------------------------------------------------

def resolve(key: np.ndarray, grid: BackoffParams | None = None
            ) -> tuple[int | None, np.ndarray, int | None]:
    """Resolve one contention from its keys (policies.contention_keys).

    The smallest key wins.  In the idealized model (grid None) sources
    with an equal key tie.  In the near-realistic model a key k lands in
    minislot max(B + floor(k), 0); that map is monotone, so the smallest
    key holds the winning minislot, and the sources in it are those with
    k < max(floor(k_min), -B) + 1.  Only the minimum is discretized, in
    integers, which agrees with the float grid map wherever that map's
    arithmetic is exact (|B + k| < 2**53).  Returns the delivered source
    (None when two or more tie, a collision), the mask of tied sources
    and the winning minislot (None in the idealized model).
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

    delivered is the source whose update got through, None after a
    collision.  duration None is an idealized unit frame; otherwise the
    frame lasted that many time units and the clock ages move with it.
    Markov sources flip within the frame, so a delivery carries the
    post-flip state; the mismatch ages update last.
    """
    # Ages entering the frame feed the frame-mean AoI.
    ages.frame_age_sum += ages.frame_age
    ages.frame_age += 1
    if delivered is not None:
        ages.frame_age[delivered] = 1
    if duration is not None:
        # Duration-weighted age sampled at the frame start; under
        # unit-length frames this reduces exactly to the frame mean,
        # so both channel models report commensurable averages.
        ages.clock_age_integral += ages.clock_age * duration
        ages.clock_age += duration
        if delivered is not None:
            # The delivered update was generated at the frame start, so the
            # monitor's information is exactly one frame-duration old.
            ages.clock_age[delivered] = duration
    if markov is not None:
        markov.x_true = next(markov.trajectory)
        if delivered is not None:
            markov.x_est[delivered] = markov.x_true[delivered]
        markov.aoii += 1
        markov.aoii[markov.x_true == markov.x_est] = 0
        markov.aoii_sum += markov.aoii


def frame_step(ages: AgeState, markov: MarkovNetState | None,
               key: np.ndarray, grid: BackoffParams | None = None
               ) -> tuple[int | None, np.ndarray, int | None, float | None]:
    """Resolve one contention frame from its keys and advance the state.

    grid None is the idealized model; otherwise the near-realistic frame
    lasts 1 + D/M for the winning minislot D.  Colliding sources still
    transmit complete updates that the base station cannot decode.
    Returns resolve()'s (delivered, tied, slot) and the duration passed
    to advance().
    """
    delivered, tied, slot = resolve(key, grid)
    duration = (None if grid is None
                else 1.0 + slot / grid.minislots_per_update)
    advance(ages, markov, delivered, duration)
    return delivered, tied, slot, duration


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
    frame cap (max_frames, default 100x the target) turns a
    non-delivering configuration into an error instead of a hang.  A
    frames horizon takes no cap.  trace, if given, receives one line per
    frame.
    """
    if horizon_unit not in ("frames", "deliveries"):
        raise ParameterError(f"unknown horizon_unit {horizon_unit!r}")
    if horizon_unit == "frames" and max_frames is not None:
        raise ParameterError("max_frames caps a deliveries horizon; "
                             "a frames horizon is its own cap")
    if kind not in RULES:
        raise ParameterError(f"unknown policy kind {kind!r}")
    rule = RULES[kind]
    contention = rule.decide == "contention"
    if contention and params is None:
        raise ParameterError(f"{kind.value} needs backoff parameters")
    if rule.signal == "aoii" and markov_q is None:
        raise ParameterError(f"{kind.value} needs Markov sources "
                             "(markov_q) to compute mismatch ages")

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
            raise RuntimeError(
                f"frame cap {cap} reached with only {deliveries} "
                f"of {target} deliveries; the configuration is not delivering")

        exponent = exponents(rule.signal, ages.frame_age, w,
                             None if markov is None else markov.aoii)
        if contention:
            e, log_e = next(timer_rows)
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
                elif rule.signal is None:
                    timer = (params.delta_scale * float(e[winners[0]])
                             / params.alpha)
                else:
                    timer = float(params.delta_scale
                                  * np.exp(log_e - log_rate)[winners[0]])
            trace.write(f"frame={frames} min_timer={timer:g} "
                        f"winners={','.join(map(str, winners))} "
                        f"collided={int(delivered is None)} "
                        f"delivered={'-' if delivered is None else delivered} "
                        f"duration={d:.6f}\n")

    frame_mean = ages.frame_age_sum / frames
    per_source = (ages.clock_age_integral / elapsed if rule.discrete
                  else frame_mean)
    normalized = float((w * per_source).sum() / n)
    aoii_mean = (float(markov.aoii_sum.mean() / frames)
                 if markov is not None else None)

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
