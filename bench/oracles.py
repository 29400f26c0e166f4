"""Independent oracles and invariant checks for benchmark outputs.

Nothing here calls aoisim: every expected value is derived again from
the model's definition, so a change that breaks the simulator or a
closed form cannot also break its oracle.  Each function returns a list
of human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015329

# Relative accuracy the Gamma(0, x) kernel documents for itself.
GAMMA0_RTOL = 1e-10
# Tolerance for identities that hold exactly up to float rounding.
EXACT_RTOL = 1e-9
# Monte Carlo gates are this many standard deviations wide.
MC_SIGMAS = 6.0


# ---------------------------------------------------------------------------
# Properties of every SimulationResult
# ---------------------------------------------------------------------------

def check_properties(result, kind, horizon: int, horizon_unit: str,
                     markov: bool) -> list[str]:
    """Invariants that hold for every run, whatever the seed.

    Only the policy's name is read from kind, so the checks do not lean
    on the enum's property tables.
    """
    problems = []
    frames = result.frame_count
    deliveries = result.delivery_count
    collisions = result.collision_rate * frames
    if abs(collisions - round(collisions)) > 1e-6 * max(frames, 1):
        problems.append(f"collision count {collisions!r} is not whole")
    if frames != deliveries + round(collisions):
        problems.append(f"frames {frames} != deliveries {deliveries} + "
                        f"collisions {round(collisions)}")
    done = deliveries if horizon_unit == "deliveries" else frames
    if done != horizon:
        problems.append(f"{horizon_unit} {done} != horizon {horizon}")
    if kind.value.startswith("near_realistic"):
        m = result.params.minislots_per_update
        expected = frames + result.avg_overhead_minislots * frames / m
        if not math.isclose(result.elapsed_time, expected, rel_tol=EXACT_RTOL):
            problems.append(f"elapsed_time {result.elapsed_time!r} != frames + "
                            f"overhead/M = {expected!r}")
    else:
        if result.collision_rate != 0.0:
            problems.append(f"{kind.value} collided at rate "
                            f"{result.collision_rate!r}; it cannot collide")
        if result.elapsed_time != frames:
            problems.append(f"unit frames but elapsed_time "
                            f"{result.elapsed_time!r} != {frames}")
    if markov:
        if result.normalized_avg_aoii is None:
            problems.append("Markov run reported no AoII")
        else:
            frame_aoi = sum(result.per_source_avg_frame_aoi) / len(
                result.per_source_avg_frame_aoi)
            if result.normalized_avg_aoii > frame_aoi * (1 + EXACT_RTOL):
                problems.append(f"mean AoII {result.normalized_avg_aoii!r} > "
                                f"mean frame AoI {frame_aoi!r}")
    return problems


# ---------------------------------------------------------------------------
# Centralized baselines with equal weights
# ---------------------------------------------------------------------------

def max_weight_mean_age(n: int, frames: int) -> float:
    """Exact mean frame age of max-weight with equal weights.

    Every source starts at age 1, so the first N frames serve each source
    once (ties are broken at random, but the age multiset does not depend
    on the order); from then on the schedule is round robin and the ages
    entering a frame are exactly 1..N, whose mean is (N+1)/2.  In frame
    k < N the k served sources hold ages 1..k and the rest hold k+1.
    """
    total = 0.0
    for k in range(min(n, frames)):
        total += k * (k + 1) / 2 + (n - k) * (k + 1)
    total += max(frames - n, 0) * n * (n + 1) / 2
    return total / (n * frames)


def check_max_weight(result, n: int) -> list[str]:
    expected = max_weight_mean_age(n, result.frame_count)
    got = result.normalized_weighted_avg_aoi
    if not math.isclose(got, expected, rel_tol=EXACT_RTOL):
        return [f"max-weight mean AoI {got!r} != round-robin value {expected!r} "
                f"(-> (N+1)/2 = {(n + 1) / 2})"]
    return []


def _cycle_sum_residual_variance(p: float) -> float:
    """Variance of a service cycle's age sum, given the cycle lengths'
    total.

    A cycle of length L ~ Geometric(p) on {1, 2, ...} contributes ages
    1..L, so C = L(L+1)/2.  The cycle lengths of all sources add up to N
    per frame, which removes the part of Var(C) that L explains:
    Var(C) - Cov(C, L)^2 / Var(L).
    """
    m1 = 1 / p
    m2 = (2 - p) / p ** 2
    m3 = (p * p - 6 * p + 6) / p ** 3
    m4 = (2 - p) * (p * p - 12 * p + 12) / p ** 4
    mean_c = (m2 + m1) / 2
    var_c = (m4 + 2 * m3 + m2) / 4 - mean_c ** 2
    cov_cl = (m3 + m2) / 2 - mean_c * m1
    var_l = m2 - m1 ** 2
    return var_c - cov_cl ** 2 / var_l


def stationary_randomized_mean_age(n: int, frames: int) -> float:
    """Expected mean frame age when each frame serves a uniform source.

    A source's age entering frame t is 1 plus the run of frames since it
    was last served, capped by t; its mean is 1 + (1-p)(1-(1-p)^t)/p with
    p = 1/N, which tends to N.
    """
    p = 1.0 / n
    s = 1.0 - p
    return 1.0 + (s / p) * (1.0 - (1.0 - s ** frames) / (p * frames))


def check_stationary_randomized(result, n: int) -> list[str]:
    frames = result.frame_count
    expected = stationary_randomized_mean_age(n, frames)
    # Each frame closes one service cycle of some source, so the mean is
    # a sum of about `frames` cycle sums divided by N * frames.
    sigma = (math.sqrt(_cycle_sum_residual_variance(1.0 / n) * (frames + n))
             / (n * frames))
    got = result.normalized_weighted_avg_aoi
    if abs(got - expected) > MC_SIGMAS * sigma:
        return [f"stationary randomized mean AoI {got!r} is "
                f"{abs(got - expected) / sigma:.1f} sigma from {expected!r} "
                f"(-> N = {n})"]
    return []


# ---------------------------------------------------------------------------
# Max-weight polling of symmetric two-state Markov sources (AoII)
# ---------------------------------------------------------------------------

def _mismatch_chain(q: float, steps: int):
    """Exact dynamic program for one source left unpolled after a match.

    The mismatch indicator d flips with probability q per frame and the
    mismatch age is the current run of d = 1.  Returns, for L = 0..steps,
    the mean and the variance of the AoII summed over the first L frames.
    """
    # state index a: a = 0 is "matched", a >= 1 is "mismatched for a frames";
    # per state: probability, E[S; state], E[S^2; state]
    prob = [1.0] + [0.0] * steps
    m1 = [0.0] * (steps + 1)
    m2 = [0.0] * (steps + 1)
    means, variances = [0.0], [0.0]
    for _ in range(steps):
        nprob = [0.0] * (steps + 1)
        nm1 = [0.0] * (steps + 1)
        nm2 = [0.0] * (steps + 1)
        for a in range(steps):
            if prob[a] == 0.0:
                continue
            p, e1, e2 = prob[a], m1[a], m2[a]
            stay_matched = (1 - q) if a == 0 else q   # next d = 0
            move_on = q if a == 0 else (1 - q)         # next d = 1
            # d -> 0: the new AoII is 0 and S is unchanged.
            nprob[0] += p * stay_matched
            nm1[0] += e1 * stay_matched
            nm2[0] += e2 * stay_matched
            # d -> 1: the new AoII is a + 1 and S grows by it.
            b = a + 1
            nprob[b] += p * move_on
            nm1[b] += (e1 + b * p) * move_on
            nm2[b] += (e2 + 2 * b * e1 + b * b * p) * move_on
        prob, m1, m2 = nprob, nm1, nm2
        mean = sum(m1)
        means.append(mean)
        variances.append(max(sum(m2) - mean * mean, 0.0))
    return means, variances


def max_weight_mean_aoii(n: int, q: float, frames: int) -> tuple[float, float]:
    """Expected mean AoII of max-weight (round robin) over a finite run,
    and the standard deviation of that mean.

    All sources start matched.  The source first served in frame j
    (j = 0..N-1) accumulates AoII over j unpolled frames, then over full
    cycles of N - 1 unpolled frames, then over a final partial cycle.
    A poll refreshes the estimate with the post-flip state, so the AoII
    of a polled frame is 0 and each poll is a renewal.
    """
    means, variances = _mismatch_chain(q, n)
    total_mean = 0.0
    total_var = 0.0
    for j in range(min(n, frames)):
        total_mean += means[j]
        total_var += variances[j]
        polls = (frames - 1 - j) // n + 1          # frames j, j+n, ...
        tail = frames - (j + (polls - 1) * n) - 1  # frames after the last poll
        total_mean += (polls - 1) * means[n - 1] + means[tail]
        total_var += (polls - 1) * variances[n - 1] + variances[tail]
    return total_mean / (n * frames), math.sqrt(total_var) / (n * frames)


def check_max_weight_aoii(result, n: int, q: float) -> list[str]:
    expected, sigma = max_weight_mean_aoii(n, q, result.frame_count)
    got = result.normalized_avg_aoii
    if abs(got - expected) > MC_SIGMAS * sigma:
        return [f"max-weight mean AoII {got!r} is "
                f"{abs(got - expected) / sigma:.1f} sigma from the round-robin "
                f"dynamic program {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# Closed-form kernels
# ---------------------------------------------------------------------------

def check_gamma0(x: float, got: float) -> list[str]:
    """Gamma(0, x) against scipy's exponential integral E1."""
    from scipy.special import exp1

    want = float(exp1(x))
    if not math.isclose(got, want, rel_tol=GAMMA0_RTOL):
        return [f"Gamma(0, {x!r}) = {got!r}, E1 gives {want!r}"]
    return []


def expected_overhead_minislots(log_total_rate: float, beta: float,
                                b_offset: int) -> float:
    """1 + E1(x) / ln(beta) with ln x = ln(rate) - B ln(beta).

    For tiny x the exponential integral is -ln x - gamma + O(x), which is
    evaluated from ln x directly, so the oracle stays defined where x
    itself underflows to 0.
    """
    from scipy.special import exp1

    ln_beta = math.log(beta)
    ln_x = log_total_rate - b_offset * ln_beta
    if ln_x < -30.0:
        e1 = -ln_x - EULER_GAMMA
    elif ln_x > 700.0:
        e1 = 0.0
    else:
        e1 = float(exp1(math.exp(ln_x)))
    return 1.0 + e1 / ln_beta


def check_overhead(cell, got: float) -> list[str]:
    log_total, beta, b_offset = cell
    want = expected_overhead_minislots(log_total, beta, b_offset)
    if not math.isclose(got, want, rel_tol=GAMMA0_RTOL):
        return [f"overhead bound at beta={beta!r} B={b_offset} is {got!r}, "
                f"E1 gives {want!r}"]
    return []


def log_sum_exp(values) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))
