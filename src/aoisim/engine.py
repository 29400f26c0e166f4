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

from dataclasses import dataclass
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
    sample_from_probs,
    stationary_randomized_probs,
)

# Frames of timer draws fetched per refill; the draws do not depend on it.
_TIMER_BLOCK = 1024


@dataclass
class MarkovNetState:
    """Symmetric two-state Markov sources and the monitor's view of them.

    Each source flips with probability q per frame, drawing from stream.
    aoii counts frames since the estimate last matched the true state;
    it is zero exactly while they agree and grows by one per frame of
    sustained mismatch.
    """

    q: np.ndarray
    x_true: np.ndarray
    x_est: np.ndarray
    aoii: np.ndarray
    stream: RngStream

    @classmethod
    def initial(cls, q, stream: RngStream) -> "MarkovNetState":
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q > 1)):
            raise ParameterError(f"transition probabilities must be in [0,1], got {q}")
        n = len(q)
        return cls(q=q,
                   x_true=np.zeros(n, dtype=np.int8),
                   x_est=np.zeros(n, dtype=np.int8),
                   aoii=np.zeros(n, dtype=np.int64),
                   stream=stream)


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


def _exponentials(sources: list[RngStream]) -> Iterator[np.ndarray]:
    """One exp(1) draw per source per frame, refilled in blocks.

    Each row is a view into the block, which the next refill overwrites.
    """
    block = np.empty((_TIMER_BLOCK, len(sources)))
    while True:
        for i, s in enumerate(sources):
            block[:, i] = s.exponential_sequence(_TIMER_BLOCK)
        yield from block


# ---------------------------------------------------------------------------
# Single frames
# ---------------------------------------------------------------------------

def advance(ages: AgeState, markov: MarkovNetState | None,
            delivered: int | None, duration: float | None = None) -> None:
    """Advance the state in place over one frame.

    delivered is the source whose update got through, None after a
    collision.  duration None is an idealized unit frame; otherwise the
    frame lasted that many time units and the clock ages move with it.
    Markov sources flip within the frame, so a delivery carries the
    post-flip state; the mismatch ages update last.
    """
    ages.frame_age += 1
    if delivered is not None:
        ages.frame_age[delivered] = 1
    if duration is not None:
        ages.clock_age += duration
        if delivered is not None:
            # The delivered update was generated at the frame start, so the
            # monitor's information is exactly one frame-duration old.
            ages.clock_age[delivered] = duration
    if markov is not None:
        markov.x_true ^= markov.stream.uniforms(len(markov.q)) < markov.q
        if delivered is not None:
            markov.x_est[delivered] = markov.x_true[delivered]
        markov.aoii += 1
        markov.aoii[markov.x_true == markov.x_est] = 0


def frame_step(ages: AgeState, markov: MarkovNetState | None,
               key: np.ndarray, minislots_per_update: int | None = None
               ) -> tuple[int, bool, float | None]:
    """Resolve one contention frame from its keys and advance the state.

    The smallest key wins and a shared minimum collides.  Keys are
    ln-timers in the idealized model (minislots_per_update None) and
    minislots in the near-realistic one, where the frame lasts 1 + D/M
    for the smallest key D.  Colliding sources still transmit complete
    updates that the base station cannot decode.  Returns the index of
    the first smallest key, whether the frame collided, and the duration
    passed to advance().
    """
    j = int(key.argmin())
    collided = np.count_nonzero(key == key[j]) > 1
    duration = (None if minislots_per_update is None
                else 1.0 + int(key[j]) / minislots_per_update)
    advance(ages, markov, None if collided else j, duration)
    return j, collided, duration


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
    frame cap (default 100x the target) turns a non-delivering
    configuration into an error instead of a hang.  trace, if given,
    receives one line per frame.
    """
    if horizon_unit not in ("frames", "deliveries"):
        raise ParameterError(f"unknown horizon_unit {horizon_unit!r}")
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
    markov = None
    if markov_q is not None:
        q = np.broadcast_to(np.atleast_1d(np.asarray(markov_q, dtype=float)),
                            (n,)).copy()
        markov = MarkovNetState.initial(q, engine_stream)
    if rule.decide == "randomized":
        probs = stationary_randomized_probs(config.weights)
    if contention:
        exponentials = _exponentials(sources)
        ln_alpha = params.ln_alpha
        m = params.minislots_per_update if rule.discrete else None

    target = config.horizon_frames
    if horizon_unit == "deliveries":
        cap = max_frames if max_frames is not None else 100 * target
    else:
        cap = max_frames if max_frames is not None else target

    frames = deliveries = overhead_minislots = 0
    elapsed = 0.0
    frame_age_sum = np.zeros(n)
    clock_age_integral = np.zeros(n)
    aoii_sum = np.zeros(n)
    while True:
        if horizon_unit == "frames":
            if frames >= target:
                break
        else:
            if deliveries >= target:
                break
            if frames >= cap:
                raise RuntimeError(
                    f"frame cap {cap} reached with only {deliveries} "
                    f"of {target} deliveries; the configuration is not delivering")

        # Ages entering the frame feed the frame-mean AoI.
        frame_age_sum += ages.frame_age
        exponent = exponents(rule.signal, ages.frame_age, w,
                             None if markov is None else markov.aoii)
        if contention:
            e = next(exponentials)
            log_rate = exponent * ln_alpha
            key = contention_keys(np.log(e), log_rate, params, rule.discrete)
            clock_before = ages.clock_age.copy() if rule.discrete else None
            j, collided, duration = frame_step(ages, markov, key, m)
        else:
            j = (argmax_decide(exponent, decision) if rule.decide == "argmax"
                 else sample_from_probs(probs, decision))
            collided, duration = False, None
            advance(ages, markov, j)

        d = 1.0 if duration is None else duration
        frames += 1
        elapsed += d
        if not collided:
            deliveries += 1
        if duration is not None:
            overhead_minislots += int(key[j])
            # Duration-weighted age sampled at the frame start; under
            # unit-length frames this reduces exactly to the frame mean,
            # so both channel models report commensurable averages.
            clock_age_integral += clock_before * d
        if markov is not None:
            aoii_sum += markov.aoii
        if trace is not None:
            if not contention:
                winners, timer = [j], 0.0
            else:
                winners = np.flatnonzero(key == key[j]).tolist()
                if rule.discrete:
                    timer = int(key[j])
                elif rule.signal is None:
                    timer = params.delta_scale * float(e[j]) / params.alpha
                else:
                    timer = float(params.delta_scale
                                  * np.exp(np.log(e) - log_rate)[j])
            trace.write(f"frame={frames} min_timer={timer:g} "
                        f"winners={','.join(map(str, winners))} "
                        f"collided={int(collided)} "
                        f"delivered={'-' if collided else j} "
                        f"duration={d:.6f}\n")

    frame_mean = frame_age_sum / frames
    per_source = (clock_age_integral / elapsed if rule.discrete
                  else frame_mean)
    normalized = float((w * per_source).sum() / n)
    aoii_mean = (float(aoii_sum.mean() / frames)
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
