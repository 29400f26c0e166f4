"""Scheduling rules: centralized baselines and distributed contention.

Every rule is a function of one per-source exponent e_i (see exponents).
A centralized rule schedules one source per frame: the argmax of e_i, or
a state-independent draw.  Under distributed contention every source
draws a backoff timer at rate alpha**e_i, which becomes a comparison key
(contention_keys); in the near-realistic model a key k lands in minislot
max(B + floor(k), 0) (minislots), and a contention is resolved from its
keys (resolve).  This module is the one place that rule is written down:
the engine and the checks call it.  RULES says, per PolicyKind, which
rule runs, which signal the exponent e_i reads and whether timers are
compared on the minislot grid.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import BackoffParams, ParameterError, RngStream


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

    On mismatch ages this is max-AoII, a hypothetical oracle baseline:
    it needs the true source states, so no base station could run it.
    """
    j = int(exponent.argmax())
    top = exponent == exponent[j]
    ties = np.count_nonzero(top)
    if ties == 1:
        return j
    return int(np.flatnonzero(top)[stream.integer(ties)])


def stationary_randomized_probs(weights: Sequence[float]) -> np.ndarray:
    """Optimal fixed scheduling distribution: sqrt(w_i) / sum_j sqrt(w_j),
    along the last axis."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w <= 0):
        raise ParameterError("weights must be a non-empty positive vector")
    s = np.sqrt(w)
    return s / s.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Distributed contention
# ---------------------------------------------------------------------------

def contention_keys(log_e: np.ndarray, log_rate: "np.ndarray | float",
                    params: BackoffParams, discrete: bool,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Comparison keys of one contention; the smallest key wins.

    Source i's timer is Z_i = E_i / rate_i for a unit exponential E_i,
    formed in log domain as ln Z_i = ln E_i - log_rate_i so that rates
    beyond float range still compare correctly.  The idealized model
    compares ln(delta * Z_i), and equal keys tie.  The near-realistic
    model's key is log_beta Z_i = ln Z_i / ln(beta); the timer lands in
    minislot max(B + floor(key), 0) (minislots), and keys in the same
    minislot tie (see resolve).  out, if given, receives the keys.
    """
    log_z = np.subtract(log_e, log_rate, out=out)
    if discrete:
        return np.divide(log_z, params.ln_beta, out=out)
    return np.add(math.log(params.delta_scale), log_z, out=out)


def minislots(key: "np.ndarray | float", b_offset: int) -> np.ndarray:
    """The minislot max(B + floor(key), 0) of each near-realistic key, as
    floats.

    The map is monotone, so the smallest key holds the winning minislot.
    Kept in floats, a key beyond any integer range still lands above
    every smaller key, and -inf lands in minislot 0.
    """
    return np.maximum(b_offset + np.floor(key), 0.0)


def resolve(key: np.ndarray, b_offset: int | None
            ) -> tuple[int | None, int | None]:
    """Resolve one contention from its keys (contention_keys).

    The smallest key wins.  In the idealized model (b_offset None) a
    runner-up equal to it collides.  In the near-realistic model the
    frame collides when the runner-up shares the minimum's minislot,
    i.e. lies below max(floor(k_min), -B) + 1.  Only the minimum is
    discretized, in integers, which agrees with minislots wherever its
    float arithmetic is exact (|B + k| < 2**53).  Returns the delivered
    source (None after a collision) and the winning minislot (None in the
    idealized model).
    """
    if len(key) == 1:
        j, runner_up = 0, math.inf
    else:
        j, i = key.argpartition(1)[:2].tolist()
        runner_up = key[i]
    k = key[j]
    if b_offset is None:
        return (None if runner_up == k else j), None
    floor_k = -b_offset if k < -b_offset else math.floor(k)
    return (None if runner_up < floor_k + 1.0 else j), b_offset + floor_k


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
