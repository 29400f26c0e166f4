"""Closed-form quantities for validating simulations against theory:
pairwise distinct-timer bounds, expected idle-time bounds, the upper
incomplete gamma kernel they need, per-frame match probabilities, and
one-frame Lyapunov drifts.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import BackoffParams, ParameterError
from .policies import (
    aoi_exponents,
    scheduling_probabilities,
    stationary_randomized_probs,
)

EULER_GAMMA = 0.5772156649015329
# ln of the smallest normal double.
LN_MIN_NORMAL = math.log(sys.float_info.min)

_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 400


# ---------------------------------------------------------------------------
# Upper incomplete gamma at s = 0 (the exponential integral E1)
# ---------------------------------------------------------------------------

def upper_incomplete_gamma_zero(x: float) -> float:
    """Gamma(0, x) = integral of exp(-t)/t from x to infinity, x > 0.

    Series expansion below x = 1, Lentz continued fraction above; both
    converge to full double precision, comfortably inside the 1e-10
    relative target.  Diverges as -ln(x) - euler_gamma for x -> 0+.
    """
    if not x > 0:
        raise ParameterError(f"Gamma(0, x) needs x > 0, got {x}")
    if x <= 1.0:
        return _gamma0_series(x)
    return _gamma0_continued_fraction(x)


def _gamma0_series(x: float) -> float:
    # Gamma(0,x) = -euler_gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, _GAMMA_MAX_ITER):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < _GAMMA_EPS * max(abs(total), 1e-300):
            return total
    raise ArithmeticError(f"series for Gamma(0, {x}) did not converge")


def _gamma0_continued_fraction(x: float) -> float:
    # Modified Lentz evaluation of e^-x * 1/(x+1- 1/(x+3- 4/(x+5- ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, _GAMMA_MAX_ITER):
        a = -k * k
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return math.exp(-x) * h
    raise ArithmeticError(f"continued fraction for Gamma(0, {x}) did not converge")


# ---------------------------------------------------------------------------
# Distinct-timer probability bound for a source pair
# ---------------------------------------------------------------------------

def timer_separation_term(b_offset: int, beta: float,
                          log_rate_i: float, log_rate_j: float) -> float:
    """One direction of the distinct-timer bound.

    Probability that source j's continuous timer lands far enough above
    source i's to survive the minislot discretization:
    P(Z_j > beta * Z_i when Z_i > beta^-B, else Z_j > beta^(-B+1)).
    Rates are passed as logs; the evaluation never forms them linearly:
    the closed form rearranges to

        expit(log_rate_i - log_rate_j - ln beta) * exp(-(u + v))
        + (1 - exp(-u)) * exp(-v)

    with u = rate_i * beta^-B and v = rate_j * beta^(-B+1), which is
    stable for u, v anywhere in [0, inf).
    """
    if not beta > 1.0:
        raise ParameterError(f"beta must be > 1, got {beta}")
    if b_offset < 0:
        raise ParameterError(f"b_offset must be >= 0, got {b_offset}")
    ln_beta = math.log(beta)
    u = math.exp(min(log_rate_i - b_offset * ln_beta, 700.0))
    v = math.exp(min(log_rate_j - (b_offset - 1) * ln_beta, 700.0))
    # rate_i / (rate_i + beta * rate_j) as a stable logistic of the log-gap
    gap = log_rate_j + ln_beta - log_rate_i
    if gap >= 0:
        head = math.exp(-gap) / (1.0 + math.exp(-gap))
    else:
        head = 1.0 / (1.0 + math.exp(gap))
    return head * math.exp(-(u + v)) - math.expm1(-u) * math.exp(-v)


def distinct_timer_bound(log_rate_i: float, log_rate_j: float,
                         params: BackoffParams) -> float:
    """Lower bound on P(the two sources pick different minislot timers):
    the sum of both directions' timer_separation_term."""
    return (timer_separation_term(params.b_offset, params.beta,
                                  log_rate_i, log_rate_j)
            + timer_separation_term(params.b_offset, params.beta,
                                    log_rate_j, log_rate_i))


# ---------------------------------------------------------------------------
# Expected idle-time (backoff overhead) bound
# ---------------------------------------------------------------------------

def log_sum_exp(values: np.ndarray) -> float:
    """Stable log of a sum of exponentials."""
    values = np.asarray(values, dtype=float)
    m = float(values.max())
    return m + math.log(float(np.exp(values - m).sum()))


def overhead_upper_bound(ages: np.ndarray, weights: np.ndarray,
                         params: BackoffParams, *,
                         minislots: bool = False) -> float:
    """Upper bound on the expected per-frame backoff overhead.

    Evaluates 1/M + Gamma(0, rate_total * beta^-B) / (M ln beta) with
    rate_total = sum_i alpha**(w_i * age_i**2) assembled in log space;
    beta^-B cancels the astronomically large total rate inside the
    gamma argument, so the only exponentiation is well-scaled.  Passing
    time-averaged (real-valued) ages gives the horizon-average form.
    With minislots=True the bound is returned in minislots instead of
    time units.
    """
    log_total = log_sum_exp(aoi_exponents(ages, weights) * params.ln_alpha)
    return overhead_upper_bound_from_log_rate(log_total, params,
                                              minislots=minislots)


def overhead_upper_bound_from_log_rate(log_total_rate: float,
                                       params: BackoffParams, *,
                                       minislots: bool = False) -> float:
    arg_log = log_total_rate - params.b_offset * params.ln_beta
    if arg_log > 700.0:
        gamma0 = 0.0  # Gamma(0,x) <= e^-x / x: dead zero past float range
    elif arg_log < LN_MIN_NORMAL:
        # exp() would lose precision or underflow to 0 here; the series'
        # leading terms -ln x - euler_gamma are off by at most x.
        gamma0 = -arg_log - EULER_GAMMA
    else:
        gamma0 = upper_incomplete_gamma_zero(math.exp(arg_log))
    slots = 1.0 + gamma0 / params.ln_beta
    return slots if minislots else slots / params.minislots_per_update


# ---------------------------------------------------------------------------
# Match probabilities and Lyapunov drift
# ---------------------------------------------------------------------------

def match_probability(exponent: np.ndarray,
                      alpha: "float | np.ndarray") -> "float | np.ndarray":
    """Probability the distributed contention lands in the argmax set of
    the exponent (the centralized argmax rule's choices), evaluated
    exactly from the closed-form win distribution; one mass per row of
    the last axis."""
    e = np.asarray(exponent, dtype=float)
    probs = scheduling_probabilities(alpha, e)
    return np.where(e == e.max(axis=-1, keepdims=True), probs, 0.0).sum(axis=-1)


def lyapunov_drift_pair(frame_age: np.ndarray, weights: np.ndarray,
                        alpha: "float | np.ndarray") -> tuple:
    """Conditional one-frame drifts of sum_i sqrt(w_i) * age_i.

    Returns (distributed contention drift, optimal stationary randomized
    drift); both have the closed form sum_j sqrt(w_j) - sum_j p_j *
    sqrt(w_j) * age_j for their respective scheduling distribution p.
    States run along the last axis, with one alpha per state if alpha
    is an array.
    """
    age = np.asarray(frame_age, dtype=float)
    w = np.asarray(weights, dtype=float)
    sqrt_w = np.sqrt(w)
    r = scheduling_probabilities(alpha, aoi_exponents(age, w))
    pi_star = stationary_randomized_probs(w)
    base = sqrt_w.sum(axis=-1)
    drift_csma = base - (r * sqrt_w * age).sum(axis=-1)
    drift_sr = base - (pi_star * sqrt_w * age).sum(axis=-1)
    return drift_csma, drift_sr
