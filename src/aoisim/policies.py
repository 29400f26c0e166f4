"""Scheduling rules: centralized baselines and distributed contention.

A centralized rule schedules one source per frame.  Under distributed
contention every source draws a backoff timer at rate alpha**e_i and the
channel resolves the minimum (see engine.run).  RULES says, per
PolicyKind, which rule runs, which signal the exponent e_i reads and
whether timers are compared on the minislot grid.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    BackoffParams,
    ParameterError,
    RngStream,
    aoi_log_rates,
    aoii_log_rates,
    discretize_log_timers,
)


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

    decide is "max_weight", "stationary_randomized" or "max_aoii" for a
    centralized rule and "contention" for the distributed one.  signal
    is the state the rule reads: "frame_age" (exponent w_i * age_i**2),
    "aoii" (the mismatch age, unweighted) or None (state-independent;
    contention then uses exponent 1 for every source).  discrete marks
    contention compared on the minislot grid, i.e. the near-realistic
    channel model.
    """

    decide: str
    signal: str | None
    discrete: bool


RULES = {
    PolicyKind.MAX_WEIGHT: Rule("max_weight", "frame_age", False),
    PolicyKind.STATIONARY_RANDOMIZED: Rule("stationary_randomized", None, False),
    PolicyKind.IDEALIZED_CSMA: Rule("contention", None, False),
    PolicyKind.IDEALIZED_FRESH_CSMA: Rule("contention", "frame_age", False),
    PolicyKind.NEAR_REALISTIC_FRESH_CSMA: Rule("contention", "frame_age", True),
    PolicyKind.MAX_AOII: Rule("max_aoii", "aoii", False),
    PolicyKind.IDEALIZED_FRESH_CSMA_AOII: Rule("contention", "aoii", False),
    PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII: Rule("contention", "aoii", True),
}


# ---------------------------------------------------------------------------
# Centralized rules
# ---------------------------------------------------------------------------

def _argmax_set(scores: np.ndarray) -> np.ndarray:
    return np.flatnonzero(scores == scores.max())


def max_weight_decide(frame_age: np.ndarray, weights: np.ndarray,
                      stream: RngStream) -> int:
    """Schedule argmax of w_i * age_i**2, breaking ties uniformly."""
    age = np.asarray(frame_age, dtype=float)
    scores = np.asarray(weights, dtype=float) * age * age
    top = _argmax_set(scores)
    if len(top) == 1:
        return int(top[0])
    return int(top[stream.integer(len(top))])


def max_aoii_decide(aoii: np.ndarray, stream: RngStream) -> int:
    """Schedule the source whose estimate has been wrong the longest.

    A hypothetical oracle baseline: it needs the true source states, so
    no base station could actually run it.
    """
    top = _argmax_set(np.asarray(aoii, dtype=float))
    if len(top) == 1:
        return int(top[0])
    return int(top[stream.integer(len(top))])


def stationary_randomized_probs(weights: Sequence[float]) -> np.ndarray:
    """Optimal fixed scheduling distribution: sqrt(w_i) / sum_j sqrt(w_j)."""
    w = np.asarray(weights, dtype=float)
    if len(w) == 0 or np.any(w <= 0):
        raise ParameterError("weights must be a non-empty positive vector")
    s = np.sqrt(w)
    return s / s.sum()


def sample_from_probs(probs: np.ndarray, stream: RngStream) -> int:
    cdf = np.cumsum(probs)
    return int(min(np.searchsorted(cdf, stream.uniform(), side="right"),
                   len(probs) - 1))


# ---------------------------------------------------------------------------
# Distributed contention
# ---------------------------------------------------------------------------

def contention_keys(log_e: np.ndarray, log_rate: "np.ndarray | float",
                    params: BackoffParams, discrete: bool) -> np.ndarray:
    """Comparison keys of one contention; the smallest key wins.

    Source i's timer is Z_i = E_i / rate_i for a unit exponential E_i,
    formed in log domain as ln Z_i = ln E_i - log_rate_i so that rates
    beyond float range still compare correctly.  The idealized model
    compares ln(delta * Z_i); the near-realistic model compares minislots
    max(B + floor(log_beta Z_i), 0), which can tie.
    """
    log_z = log_e - log_rate
    if discrete:
        return discretize_log_timers(log_z, params)
    return math.log(params.delta_scale) + log_z


def scheduling_probabilities(alpha: float, *,
                             frame_age: np.ndarray | None = None,
                             weights: np.ndarray | None = None,
                             aoii: np.ndarray | None = None) -> np.ndarray:
    """Closed-form per-frame win distribution of the contention.

    Source i wins with probability alpha**e_i / sum_j alpha**e_j.
    Evaluated as a max-shifted softmax over e_i * ln(alpha), which is
    invariant under common rate rescaling and never overflows.
    """
    if (aoii is None) == (frame_age is None):
        raise ParameterError("pass exactly one of frame_age (+weights) or aoii")
    if aoii is not None:
        log_rate = aoii_log_rates(aoii, alpha)
    else:
        if weights is None:
            raise ParameterError("frame_age form needs weights")
        log_rate = aoi_log_rates(frame_age, weights, alpha)
    shifted = log_rate - log_rate.max()
    num = np.exp(shifted)
    return num / num.sum()
