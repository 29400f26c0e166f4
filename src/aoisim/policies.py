"""Scheduling rules: centralized baselines and distributed contention.

Every rule is a function of one per-source exponent e_i (see exponents).
A centralized rule schedules one source per frame: the argmax of e_i, or
a state-independent draw.  Under distributed contention every source
draws a backoff timer Z_i at rate alpha**e_i, held as ln Z_i; a
non-decreasing map turns ln Z_i into a comparison key (key_of): ln Z_i
itself in the idealized model, log_beta Z_i in the near-realistic model,
where a key k lands in minislot max(B + floor(k), 0) (minislots).  A
contention is resolved from its ln Z row (resolve) or from a block of
ln Z rows in one pass (resolve_rows); both take
(log_z, params, discrete) and report a collision as -1.  This module is
the one place that rule is written down: the engine and the checks call
it.  RULES says, per PolicyKind, which rule runs, which signal the
exponent e_i reads and whether timers are compared on the minislot grid.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import BackoffParams, RngStream, weight_vectors


class PolicyKind(Enum):
    MAX_WEIGHT = "max_weight"
    STATIONARY_RANDOMIZED = "stationary_randomized"
    IDEALIZED_CSMA = "idealized_csma"
    IDEALIZED_FRESH_CSMA = "idealized_fresh_csma"
    NEAR_REALISTIC_FRESH_CSMA = "near_realistic_fresh_csma"
    MAX_AOII = "max_aoii"
    IDEALIZED_FRESH_CSMA_AOII = "idealized_fresh_csma_aoii"
    NEAR_REALISTIC_FRESH_CSMA_AOII = "near_realistic_fresh_csma_aoii"


class Rule(NamedTuple):
    """How one PolicyKind schedules.

    decide is "argmax" (schedule the largest exponent: max-weight on
    frame ages, max-AoII on mismatch ages) or "randomized" (the optimal
    stationary randomized draw) for a centralized rule, and "contention"
    for the distributed one.  signal is the state the exponent reads:
    "frame_age" (w_i * age_i**2), "aoii" (the mismatch age, unweighted)
    or None (state-independent: exponent 1 for every source).  discrete
    marks contention compared on the minislot grid, i.e. the
    near-realistic channel model.
    """

    decide: str
    signal: str | None
    discrete: bool


RULES = {
    PolicyKind.MAX_WEIGHT: Rule("argmax", "frame_age", False),
    PolicyKind.STATIONARY_RANDOMIZED: Rule("randomized", None, False),
    PolicyKind.IDEALIZED_CSMA: Rule("contention", None, False),
    PolicyKind.IDEALIZED_FRESH_CSMA: Rule("contention", "frame_age", False),
    PolicyKind.NEAR_REALISTIC_FRESH_CSMA: Rule("contention", "frame_age", True),
    PolicyKind.MAX_AOII: Rule("argmax", "aoii", False),
    PolicyKind.IDEALIZED_FRESH_CSMA_AOII: Rule("contention", "aoii", False),
    PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII: Rule("contention", "aoii", True),
}


def aoi_exponents(frame_age: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The AoI exponent w_i * age_i**2 per source; its log rate is
    exponent * ln(alpha)."""
    age = np.asarray(frame_age, dtype=float)
    return np.asarray(weights, dtype=float) * age * age


def exponents(signal: str | None, frame_age: np.ndarray, weights: np.ndarray,
              aoii: np.ndarray | None) -> "np.ndarray | float":
    """The exponent e_i that signal reads: w_i * age_i**2, the mismatch
    age as float, or 1.0 for every source."""
    if signal == "frame_age":
        return aoi_exponents(frame_age, weights)
    if signal == "aoii":
        return np.asarray(aoii, dtype=float)
    return 1.0


# ---------------------------------------------------------------------------
# Centralized rules
# ---------------------------------------------------------------------------

def argmax_decide(exponent: np.ndarray, stream: RngStream) -> int:
    """Schedule the argmax of the exponent, breaking ties uniformly.

    The runner-up is the argmax with the maximum masked to -inf, which
    no exponent is; only when it equals the maximum are the tied sources
    listed and one of them drawn from stream.  exponent must be
    writable; it comes back unchanged.  On mismatch ages this is
    max-AoII, a hypothetical oracle baseline: it needs the true source
    states, so no base station could run it.
    """
    j = int(exponent.argmax())
    top = exponent.item(j)
    exponent[j] = -math.inf
    runner_up = exponent.item(exponent.argmax())
    exponent[j] = top
    if runner_up != top:
        return j
    ties = np.flatnonzero(exponent == top)
    return int(ties[stream.integer(len(ties))])


def stationary_randomized_probs(weights: Sequence[float]) -> np.ndarray:
    """Optimal fixed scheduling distribution: sqrt(w_i) / sum_j sqrt(w_j),
    along the last axis."""
    s = np.sqrt(weight_vectors(weights))
    return s / s.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Distributed contention
# ---------------------------------------------------------------------------

def key_of(log_z: "np.ndarray | float", params: BackoffParams,
           discrete: bool, out: np.ndarray | None = None
           ) -> "np.ndarray | float":
    """The comparison key of each ln-timer ln Z; the smallest key wins.

    The idealized model compares ln Z itself, and equal ln-timers tie;
    its key is ln Z, or a copy written to out.  The near-realistic
    model's key is log_beta Z = ln Z / ln(beta); the timer lands in
    minislot max(B + floor(key), 0) (minislots), and keys in the same
    minislot tie (see resolve).  That map is one correctly rounded
    operation, the same on a float as on an array, and non-decreasing,
    so it keeps the order of ln-timers but may merge adjacent ones.  A
    quotient beyond float range rounds to -inf, which lands in minislot
    0 as every key at or below -B does.  out, as in numpy, receives the
    keys of an array; it may be log_z.
    """
    if not discrete:
        return log_z if out is None else np.positive(log_z, out=out)
    if type(log_z) is float:
        return log_z / params.ln_beta
    with np.errstate(over="ignore"):
        return np.divide(log_z, params.ln_beta, out=out)


def minislots(key: "np.ndarray | float", b_offset: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """The minislot max(B + floor(key), 0) of each near-realistic key, as
    floats.

    The map is monotone, so the smallest key holds the winning minislot,
    and -inf lands in minislot 0.  Every minislot is exact within
    BackoffParams' domain.  out, as in numpy, receives the minislots; it
    may be key.
    """
    return np.maximum(np.add(b_offset, np.floor(key, out=out), out=out), 0.0,
                      out=out)


def resolve(log_z: np.ndarray, params: BackoffParams, discrete: bool
            ) -> tuple[int, int | None]:
    """Resolve one contention from its ln-timers ln Z.

    The smallest key (key_of) wins.  The key map is non-decreasing, so
    the smallest and second-smallest keys are those of the smallest ln Z
    and of the runner-up: the smallest ln Z once the minimum is masked
    to +inf.  In the idealized model the key is ln Z, and a runner-up
    equal to the minimum collides.  In the near-realistic model the
    frame collides when the runner-up shares the minimum's minislot,
    i.e. its key lies below max(floor(k_min), -B) + 1.  Only the minimum
    is discretized; within BackoffParams' domain that is exact and agrees
    with minislots.  The grid keys are key_of's float branch written
    out, the same correctly rounded division by ln(beta).  On a delivery
    the minimum key is unique, so the argmin of ln Z is the winner.
    log_z must be writable; it comes back unchanged.  Returns the
    delivered source (-1 after a collision) and the winning minislot as
    an int (None in the idealized model).  The engine walks a block's
    frames through resolve and settles a collision run, or a whole
    settle block up to its first delivery, through resolve_rows.
    """
    j = int(log_z.argmin())
    z = log_z.item(j)
    log_z[j] = math.inf
    runner_up = log_z.item(log_z.argmin())
    log_z[j] = z
    if not discrete:
        return (-1 if runner_up == z else j), None
    # key_of's float branch, written out: one correctly rounded division
    ln_beta, b_offset = params.ln_beta, params.b_offset
    k = z / ln_beta
    # max(floor(k), -B), clamped first: -B is an integer, -inf has no int floor
    floor_k = math.floor(k if k > -b_offset else -b_offset)
    delivered = -1 if runner_up / ln_beta < floor_k + 1.0 else j
    return delivered, b_offset + floor_k


def resolve_rows(log_z: np.ndarray, params: BackoffParams, discrete: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """resolve applied to each row of ln-timers, shape (contentions,
    sources), in one pass.

    A row collides when its two smallest ln-timers are equal in the
    idealized model, or share a minislot on the grid.  Returns the
    delivered source per row, -1 after a collision, and the winning
    minislots as integers (None in the idealized model), which are exact
    within BackoffParams' domain.
    """
    keys = key_of(log_z, params, discrete)
    # each row's two smallest keys; a lone source's runner-up is +inf
    two = (np.partition(keys, 1, axis=1)[:, :2] if keys.shape[1] > 1
           else np.append(keys, np.full_like(keys, math.inf), axis=1))
    if discrete:
        two = minislots(two, params.b_offset)
    k, runner_up = two.T
    # a row delivers only with a unique minimum, so any argmin is the winner
    won = np.where(runner_up == k, -1, keys.argmin(axis=1))
    return won, k.astype(np.int64) if discrete else None


def scheduling_probabilities(alpha: "float | np.ndarray",
                             exponent: np.ndarray) -> np.ndarray:
    """Closed-form per-frame win distribution of the contention.

    Source i wins with probability alpha**e_i / sum_j alpha**e_j, along
    the last axis of exponent; an array alpha holds one value per row.
    Evaluated as a max-shifted softmax over e_i * ln(alpha), which is
    invariant under common rate rescaling and never overflows.
    """
    # math.log for a scalar alpha: numpy's log can differ in the last bit
    ln_alpha = np.log(alpha)[..., None] if np.ndim(alpha) else math.log(alpha)
    log_rate = np.asarray(exponent, dtype=float) * ln_alpha
    num = np.exp(log_rate - log_rate.max(axis=-1, keepdims=True))
    return num / num.sum(axis=-1, keepdims=True)
