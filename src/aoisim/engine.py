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

A run's state lives in one object, _RunState, built once from the
config, the kind, the parameters, the stream prefix and the Markov
flip probabilities.  It holds the streams and their draw blocks (ln E
of _BLOCK frames, refilled in place; the Markov true states and their
run lengths; the stationary randomized picks), each source's last
delivery and frame-age sum, the clock ages and their integral, the
Markov estimates and AoII sum, and the counters.  run() checks its
arguments, builds the state, steps it until the horizon and forms the
SimulationResult.

Each step moves the state on by one block, which never crosses a
refill's end: at most _FRAMES frames, or the rest of the refill for a
settle block (below).  Between deliveries every frame age grows by one
and every mismatch age follows its source's true states against an
estimate that does not move, so at a block's start the exponents and
ln-timers ln Z = ln E - ln rate of all its frames are formed at once,
as if nobody delivered.
A mismatch age is the length of the current run of equal true states
while the state differs from the estimate, so each refill computes the
run lengths once (_run_lengths), and a block forms two estimate-free
layers: layer v, (x != v) * length, holds the ages under an estimate
of v.  The AoII rules decide from layer x_est, column by column; a
settle block, which nothing patches, forms only that layer.  The
block holds ln Z, not keys.  The idealized model compares ln Z itself;
the minislot grid's key map (policies.key_of) is non-decreasing, so it
is applied only where values are compared, inside policies.resolve
and policies.resolve_rows, and to the trace rows.

A step then takes two passes.  The walk only decides: it resolves
each frame from its row, which resolve masks and restores in place (so
the row must be writable), and records the delivered source, -1 after a
collision as resolve reports it, and on the minislot grid the winning
minislot.  A delivery changes only the delivered source's state, so the
walk patches only that source's column of what the next decision reads:
its ln Z under frame-age contention (one subtraction), its exponent
under max-weight, and under the AoII rules its column of layer v, v
being the post-flip state the delivery carries and now its estimate.
A collision changes nothing, so once two frames in a row collide, the
rows up to the next delivery are settled in one pass
(policies.resolve_rows, on the same ln Z rows and with the same -1 for
a collision).  A run that reaches its block's end makes the next block
a settle block: it is formed up to the refill's end or the frame cap,
settled in one resolve_rows pass, and ends at its first delivering row.
While settle blocks deliver nothing the next is one too, so a saturated
run takes one pass per refill.  The stationary randomized walk is a
slice of a refill's picks, drawn at once by searchsorted on the
cumulative distribution.  The walk stops at the block's end or at the
last delivery a deliveries horizon needs.  The accounting pass then
goes over the recorded deliveries in frame order: the delivery count
and the frame-age sums.  It also forms the frame and overhead totals,
the near-realistic frame durations and the trace lines.  What depends
on a whole run of frames waits for the refill's end and the run's end
(_RunState.account_refill), from the refill's recorded deliveries: the
AoII sum of every kind with Markov sources, in exact integers, and on
the minislot grid the elapsed time, the clock ages and their integral
(_clock_ages).  Every float sum runs in frame order, through
np.add.accumulate, so each value is the one frame-by-frame additions
give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .core import (BackoffParams, NetworkConfig, ParameterError, RngStream,
                   whole_number)
from .policies import (
    RULES,
    PolicyKind,
    aoi_exponents,
    argmax_decide,
    exponents,
    key_of,
    minislots,
    resolve,
    resolve_rows,
    stationary_randomized_probs,
)

# Frames of timer and Markov draws fetched per refill, and the most
# frames of a kernel block other than a settle block; every block is a
# frame slice of one refill, and neither size changes a draw.  A refill's
# clock ages are accounted _CLOCK_FRAMES frames at a time, which bounds
# the restart chains _clock_ages forms.
_BLOCK = 1024
_FRAMES = 64
_CLOCK_FRAMES = 128


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one run.

    per_source_avg_aoi is the reported age average: the plain frame mean
    in the idealized model, the duration-weighted mean of the wall-clock
    age sampled at frame starts in the near-realistic model
    (per_source_avg_frame_aoi carries the frame-count mean in both).
    normalized_weighted_avg_aoi is (1/N) sum_i w_i * avg_i.  The run's
    seed is config.seed.
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

def _trajectory(q: np.ndarray, x_start: np.ndarray,
                stream: RngStream) -> Iterator[np.ndarray]:
    """The true states of the frames after x_start, one refill at a time:
    row 0 holds the state entering the refill, row r + 1 the state after
    frame r's flip.

    Each refill draws every flip as uniforms((_BLOCK, n)) < q, which
    continues the stream exactly as one uniforms(n) per frame would,
    and XOR-accumulates the flips down the frames onto row 0, the last
    row of the refill before.  The next refill overwrites the block.
    """
    states = np.empty((_BLOCK + 1, len(x_start)), dtype=bool)
    states[-1] = x_start
    while True:
        states[0] = states[-1]
        flips = stream.uniforms((_BLOCK, states.shape[1])) < q
        np.bitwise_xor.accumulate(flips, axis=0, out=states[1:])
        states[1:] ^= states[0]
        yield states


def _run_lengths(x: np.ndarray, length: np.ndarray) -> None:
    """Each source's run length of equal true states over a refill x of
    _trajectory, written in place to length, an int array of x's shape.

    length's last row holds the run lengths after the refill before (1
    before the first refill); row 0 takes them, as the runs entering x,
    and row r + 1 receives the lengths after frame r.
    """
    length[0] = length[-1]
    rows = np.arange(len(x), dtype=length.dtype)[:, None]
    # Formed in place: the row before each run's first, row r - 1 where
    # row r changed and -length[0] for the run entering the refill.
    start = length[1:]
    start[:] = -length[0]
    np.copyto(start, rows[:-1], where=x[1:] != x[:-1])
    np.maximum.accumulate(start, axis=0, out=start)
    np.subtract(rows[1:], start, out=start)


def _leading_collisions(won: np.ndarray) -> int:
    """The number of rows of won (resolve_rows' delivered sources) before
    the first delivery: all of them when none delivers."""
    delivered = won >= 0
    hit = int(delivered.argmax())
    return hit if delivered[hit] else len(won)


def _clock_ages(age: np.ndarray, integral: np.ndarray, durations: np.ndarray,
                won: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The near-realistic clock ages and their integral after a span of
    frames.

    age and integral enter the span; its frames last durations and
    deliver won (-1 after a collision).  Each frame adds its duration
    times the ages at its start to the integral, then adds its duration
    to every age.  A delivery restarts its source's age at the frame's
    duration: the update was generated at the frame start, so the
    monitor's information is one frame-duration old.  The sums run in
    frame order through np.add.accumulate, one restart chain per
    delivery (_restart_ages), so every float is the one frame-by-frame
    additions give.
    """
    k, n = len(durations), len(age)
    ages = np.empty((k + 1, n))
    ages[0] = age
    ages[1:] = durations[:, None]
    np.add.accumulate(ages, axis=0, out=ages)
    if max(won) >= 0:
        _restart_ages(ages[1:], durations, np.asarray(won))
    terms = np.empty_like(ages)
    terms[0] = integral
    np.multiply(ages[:k], durations[:, None], out=terms[1:])
    np.add.accumulate(terms, axis=0, out=terms)
    return ages[k], terms[k]


def _restart_ages(ages: np.ndarray, durations: np.ndarray,
                  won: np.ndarray) -> None:
    """Write, in place, the ages after each frame of a span of every
    source after its first delivery in the span: the durations from its
    latest delivery's frame on, summed in frame order.

    Chain m holds delivery m's frame's duration and those after it, as
    far as an age reads one: a window of the zero-padded durations,
    summed by one accumulate.  Its own function, so that its index
    arrays are freed before _clock_ages forms the integral's terms.
    """
    k = len(durations)
    rows = np.flatnonzero(won >= 0)
    # sel: each source's latest delivery by frame, an index into rows
    # (-1 for none yet), and since: the frames from it to this one.
    sel = np.full(ages.shape, -1, dtype=np.intp)
    sel[rows, won[rows]] = np.arange(len(rows))
    np.maximum.accumulate(sel, axis=0, out=sel)
    restarted = sel >= 0
    since = rows[sel]
    np.subtract(np.arange(k)[:, None], since, out=since)
    since *= restarted
    width = since.max() + 1
    padded = np.zeros(k + width)
    padded[:k] = durations
    chains = np.lib.stride_tricks.sliding_window_view(padded, width)[rows]
    np.add.accumulate(chains, axis=1, out=chains)
    np.copyto(ages, chains[sel, since], where=restarted)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def check_run_inputs(kind, horizon_unit: str, markov_q, n_sources: int):
    """The rules a run's inputs keep, stated once: run() checks them, and
    ExperimentSpec checks them per listed policy when it is made.

    kind is a PolicyKind, horizon_unit is "frames" or "deliveries", an
    AoII kind needs markov_q, and markov_q is one flip probability in
    [0, 1] or one per source.  Returns markov_q as an array, or None.
    """
    if not isinstance(kind, PolicyKind):
        raise ParameterError(f"unknown policy kind {kind!r}")
    if horizon_unit not in ("frames", "deliveries"):
        raise ParameterError(f"unknown horizon_unit {horizon_unit!r}")
    if markov_q is None:
        if RULES[kind].signal == "aoii":
            raise ParameterError(f"{kind.value} needs Markov sources "
                                 "(markov_q) to compute mismatch ages")
        return None
    q = np.atleast_1d(np.asarray(markov_q, dtype=float))
    if q.shape not in ((1,), (n_sources,)):
        raise ParameterError(f"need one transition probability or "
                             f"{n_sources}, got shape {q.shape}")
    if not np.all((q >= 0) & (q <= 1)):
        raise ParameterError(f"transition probabilities must be in [0,1], got {q}")
    return q


class _RunState:
    """Everything one run carries from block to block: its streams and
    draw blocks, each source's last delivery and frame-age sum, the clock
    ages and their integral, the Markov states and estimates, and the
    counters.  Built once per run; step() moves it one block on."""

    def __init__(self, config, kind, params, prefix, q) -> None:
        decide, signal, discrete = self.rule = RULES[kind]
        n = config.n_sources
        self.w = config.weights_array
        self.params = params
        engine_stream, self.decision, self.sources = substreams(
            config.seed, prefix, kind, n)
        # The AoI exponent w_i * a**2 of frame age a, in row a: the delivered
        # source's column for the rest of a block.
        self.age_table = aoi_exponents(np.arange(_FRAMES)[:, None], self.w)
        if decide == "contention":
            # source-major, so each source's draws fill one contiguous row
            self.log_e = np.empty((n, _BLOCK))
            self.log_rate_table = self.age_table * params.ln_alpha
        self.markov = q is not None
        if self.markov:
            self.states = _trajectory(q, np.zeros(n), engine_stream)
            # Every source starts in state 0, matched by its estimate, so the
            # length of that first run never shows.  int32 holds runs of up
            # to 2**31 - 1 frames.
            self.length = np.ones((_BLOCK + 1, n), dtype=np.int32)
            # The estimates the AoII walk decides from and keeps up to date,
            # and the refill's latest-delivery codes, the estimates entering
            # it in row 0 (see account_aoii; every code is below
            # 2 * _BLOCK + 2).
            self.x_est = np.zeros(n, dtype=bool)
            self.code = np.zeros((_BLOCK + 1, n), dtype=np.int16)
            self.aoii_sum = np.zeros(n)
        if decide == "randomized":
            self.cdf = np.cumsum(stationary_randomized_probs(config.weights))
        if discrete:
            # Wall-clock ages sampled at frame starts, weighted by the frame's
            # duration (see _clock_ages), and the refill's frame durations.
            self.clock_age = np.ones(n)
            self.clock_age_integral = np.zeros(n)
            self.durations = np.empty(_BLOCK)
        # The refill's delivered sources frame by frame (-1: none), which
        # account_refill reads.
        self.refill_won = []
        # Frame of each source's last delivery (-1 before the first: ages
        # start at 1) and the frame ages summed over its closed intervals.
        self.last = [-1] * n
        self.frame_age_sum = [0] * n
        self.frames = self.deliveries = self.overhead_minislots = 0
        self.elapsed = 0.0
        # after_collision: the last frame collided; settle: its collision
        # run reached its block's end, so the next block is a settle block.
        self.after_collision = self.settle = False

    def step(self, rows: int, left: int, trace: IO[str] | None) -> None:
        """Form, walk and account for the next block: at most rows frames,
        the walk stopping after left more deliveries.  A block ends at the
        refill's end; a settle block spans the rest of the refill, any
        other block at most _FRAMES frames."""
        decide, signal, discrete = self.rule
        contention = decide == "contention"
        params, age_table, last = self.params, self.age_table, self.last
        first = self.frames
        offset = first % _BLOCK
        if offset == 0:
            if first:
                self.account_refill()
            # Refill the draw blocks, each in place: ln E takes one exp(1)
            # draw per source and frame, a source's row at a time.  A zero
            # draw (a zero uniform) is ln E = -inf, a timer that wins its
            # frame, or minislot 0 on the grid.
            if contention:
                for s, row in zip(self.sources, self.log_e):
                    s.log_exponentials(row)
            if self.markov:
                self.x_block = next(self.states)
                _run_lengths(self.x_block, self.length)
            if decide == "randomized":
                self.picks = np.minimum(
                    np.searchsorted(self.cdf, self.decision.uniforms(_BLOCK),
                                    side="right"), len(last) - 1).tolist()
        k = min(rows, _BLOCK - offset, _BLOCK if self.settle else _FRAMES)

        # The block as if nobody delivered: frame ages grow by one per
        # row, mismatch ages follow the trajectory.  Layer v holds the
        # AoII exponents or ln-timers under an estimate of v, which is
        # exact after a delivery in state v, and the AoII kinds decide
        # from layer x_est, column by column.
        age = mismatch = None
        if signal == "frame_age":
            age = np.arange(first, first + k)[:, None] - np.array(last)
        elif signal == "aoii":
            # Row r of the block enters frame r, so row r + 1 of x holds
            # frame r's post-flip state.  A mismatch age is the run length
            # while the state differs from the estimate, 0 while it
            # matches: states are binary, so a mismatching run began after
            # the last match.
            x = self.x_block[offset:offset + k + 1]
            length = self.length[offset:offset + k]
            if self.settle:
                # nothing patches a settle block: only layer x_est is read
                mismatch = (x[:-1] != self.x_est) * length
            else:
                mismatch = np.empty((2, k, len(last)))
                np.multiply(x[:-1], length, out=mismatch[0])
                np.subtract(length, mismatch[0], out=mismatch[1])
        layers = exponents(signal, age, self.w, mismatch)
        if contention:
            log_e = self.log_e[:, offset:offset + k].T
            log_rate_table = self.log_rate_table
            layers = np.subtract(log_e, layers * params.ln_alpha)
        now = (np.where(self.x_est, layers[1], layers[0])
               if signal == "aoii" and not self.settle else layers)

        # The walk decides each frame and records its delivered source,
        # -1 after a collision, and on the minislot grid its winning
        # minislot, until the block ends or the last delivery is made.
        # A delivery changes only its source's state, so it patches only
        # that source's column of what the next decision reads.
        if decide == "randomized":
            won, slots = self.picks[offset:offset + min(k, left)], []
        elif self.settle:
            # The collision run before this block reached its block's end,
            # so every row stands as formed up to the next delivery: one
            # pass settles them, and the block ends at the delivering row.
            run_won, run_slots = resolve_rows(now, params, discrete)
            hit = _leading_collisions(run_won)
            won = run_won[:hit + 1].tolist()
            slots = run_slots[:hit + 1] if discrete else []
            if hit < k:
                self.settle = self.after_collision = False
                if signal == "aoii":
                    j = won[hit]
                    self.x_est[j] = x.item(hit + 1, j)
        else:
            won, slots = [], []
            decision, after_collision = self.decision, self.after_collision
            r = 0
            while r < k and left:
                if decide == "argmax":
                    j = argmax_decide(now[r], decision)
                else:
                    j, slot = resolve(now[r], params, discrete)
                    if j < 0 and after_collision:
                        # A collision changes no timer, so the rows after
                        # it stand as formed up to the next delivery: once
                        # two frames in a row collide, settle the run in
                        # one pass and go on at its delivering row.  A run
                        # that reaches the block's end goes on in a settle
                        # block.
                        run_won, run_slots = resolve_rows(now[r:k], params,
                                                          discrete)
                        hit = _leading_collisions(run_won)
                        won += [-1] * hit
                        if discrete:
                            slots += run_slots[:hit].tolist()
                        r += hit
                        if r == k:
                            self.settle = True
                            break
                        j = int(run_won[hit])
                        slot = int(run_slots[hit]) if discrete else None
                    after_collision = j < 0
                    if discrete:
                        slots.append(slot)
                won.append(j)
                if j >= 0:
                    left -= 1
                    if signal == "aoii":
                        # Markov sources flip within the frame, so a
                        # delivery carries the post-flip state.
                        v = int(x.item(r + 1, j))
                        self.x_est[j] = v
                        now[r + 1:, j] = layers[v, r + 1:, j]
                    elif signal == "frame_age" and contention:
                        np.subtract(log_e[r + 1:, j],
                                    log_rate_table[1:k - r, j],
                                    out=now[r + 1:, j])
                    elif signal == "frame_age":
                        now[r + 1:, j] = age_table[1:k - r, j]
                r += 1
            self.after_collision = after_collision

        # The accounting pass: the block's deliveries in frame order.  The
        # AoII sum, the elapsed time and the clock ages wait for the
        # refill's end (account_refill).
        done = len(won)
        self.frames += done
        self.deliveries += done - won.count(-1)
        frame_age_sum = self.frame_age_sum
        for r, j in enumerate(won):
            if j >= 0:
                m = first + r - last[j]
                frame_age_sum[j] += m * (m + 1) // 2
                last[j] = first + r
        self.refill_won += won
        if discrete:
            # A frame lasts 1 + s / M, s / M the correctly rounded quotient.
            # Minislots are whole numbers below 2**53 and BackoffParams
            # keeps M at most 2**53, so both are exact floats and one array
            # division gives every quotient.
            slots = np.array(slots)
            durations = self.durations[offset:offset + done]
            np.divide(slots, float(params.minislots_per_update), out=durations)
            durations += 1.0
            self.overhead_minislots += int(slots.sum())
        else:
            # unit frames: every partial sum is an exact integer
            self.elapsed += done
        if trace is not None:
            for r, j in enumerate(won):
                winners, timer = [j], 0.0
                if contention:
                    row = key_of(now[r], params, discrete)
                    tied = (minislots(row, params.b_offset) == slots[r]
                            if discrete else row == row.min())
                    winners = np.flatnonzero(tied).tolist()
                    timer = (slots[r] if discrete
                             else np.exp(now[r])[winners[0]])
                duration = durations[r] if discrete else 1.0
                trace.write(f"frame={first + r + 1} min_timer={timer:g} "
                            f"winners={','.join(map(str, winners))} "
                            f"collided={int(j < 0)} "
                            f"delivered={'-' if j < 0 else j} "
                            f"duration={duration:.6f}\n")

    def account_refill(self) -> None:
        """Account for the refill's frames so far from their recorded
        deliveries, then clear the record: the AoII sum (account_aoii)
        and, on the minislot grid, the elapsed time and the clock ages,
        _CLOCK_FRAMES frames at a time."""
        won = self.refill_won
        if self.markov:
            self.account_aoii(np.array(won))
        if self.rule.discrete:
            durations = self.durations[:len(won)]
            steps = np.append(self.elapsed, durations)
            self.elapsed = np.add.accumulate(steps)[-1].item()
            for s in range(0, len(won), _CLOCK_FRAMES):
                self.clock_age, self.clock_age_integral = _clock_ages(
                    self.clock_age, self.clock_age_integral,
                    durations[s:s + _CLOCK_FRAMES], won[s:s + _CLOCK_FRAMES])
        self.refill_won = []

    def account_aoii(self, won: np.ndarray) -> None:
        """Add the mismatch ages after each of the refill's frames so far,
        which delivered won, to the AoII sum, and carry the estimates into
        the next refill.

        Code row 0 holds the estimates entering the refill, and row r + 1
        the code 2r + 2 + v where frame r delivered a source in state v.
        Each delivery's code passes every code before it, so the running
        maximum down the rows is the latest one, and its low bit the
        estimate after each frame.  The sum of (x != estimate) * run
        length is exact in integers.
        """
        k = len(won)
        x, code = self.x_block, self.code[:k + 1]
        rows = np.flatnonzero(won >= 0)
        code[rows + 1, won[rows]] = 2 * rows + 2 + x[rows + 1, won[rows]]
        np.maximum.accumulate(code, axis=0, out=code)
        code &= 1
        self.code[0] = code[k]
        self.aoii_sum += ((x[1:k + 1] != code[1:])
                          * self.length[1:k + 1]).sum(axis=0)
        self.code[1:] = 0


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
    frame cap (max_frames, a whole number at least 1, default 100x the
    target) turns a non-delivering configuration into an error instead
    of a hang.  A frames horizon takes no cap.  trace, if given,
    receives one line per frame, whose min_timer is the winner's timer:
    its minislot on the grid, Z in the idealized model.
    """
    q = check_run_inputs(kind, horizon_unit, markov_q, config.n_sources)
    if horizon_unit == "frames" and max_frames is not None:
        raise ParameterError("max_frames caps a deliveries horizon; "
                             "a frames horizon is its own cap")
    if max_frames is not None:
        max_frames = whole_number("max_frames", max_frames, least=1)
    decide, _, discrete = RULES[kind]
    if decide == "contention" and params is None:
        raise ParameterError(f"{kind.value} needs backoff parameters")

    # A frames horizon ends at its frame count, which no delivery count
    # can pass first; a deliveries horizon ends at its target or the cap.
    target = config.horizon_frames
    cap = (target if horizon_unit == "frames"
           else 100 * target if max_frames is None else max_frames)
    state = _RunState(config, kind, params, prefix, q)
    while state.frames < cap and state.deliveries < target:
        state.step(cap - state.frames, target - state.deliveries, trace)
    state.account_refill()
    frames, deliveries = state.frames, state.deliveries
    if horizon_unit == "deliveries" and deliveries < target:
        raise RuntimeError(
            f"frame cap {cap} reached with only {deliveries} "
            f"of {target} deliveries; the configuration is not delivering")

    frame_mean = np.array([s + (frames - l) * (frames - 1 - l) // 2
                           for s, l in zip(state.frame_age_sum, state.last)],
                          dtype=float) / frames
    per_source = (state.clock_age_integral / state.elapsed if discrete
                  else frame_mean)

    return SimulationResult(
        policy=kind,
        normalized_weighted_avg_aoi=float((state.w * per_source).mean()),
        per_source_avg_aoi=tuple(float(x) for x in per_source),
        per_source_avg_frame_aoi=tuple(float(x) for x in frame_mean),
        normalized_avg_aoii=(float(state.aoii_sum.mean() / frames)
                             if state.markov else None),
        collision_rate=(frames - deliveries) / frames,
        avg_overhead_minislots=state.overhead_minislots / frames,
        frame_count=frames,
        delivery_count=deliveries,
        elapsed_time=state.elapsed,
        config=config,
        params=params,
    )
