import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from aoisim import (
    BackoffParams,
    ParameterError,
    RngStream,
    distinct_timer_bound,
    drift_alpha_threshold,
    lyapunov_drift_pair,
    match_probability,
    overhead_upper_bound,
    scheduling_probabilities,
    timer_separation_term,
    upper_incomplete_gamma_zero,
)
from aoisim.analysis import (
    EULER_GAMMA,
    LN_MIN_NORMAL,
    log_sum_exp,
    overhead_upper_bound_from_log_rate,
)
from aoisim.checks import _log_timers
from aoisim.policies import aoi_exponents, contention_keys, minislots


def gamma0_quadrature(x: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral,
    integral of exp(-t)/t from x to infinity, after t = exp(s)."""
    val, _ = integrate.quad(lambda s: math.exp(-math.exp(s)), math.log(x), 50.0,
                            epsabs=0.0, epsrel=1e-12, limit=300)
    return val


# ---------------------------------------------------------------------------
# Upper incomplete gamma at s = 0
# ---------------------------------------------------------------------------

def test_gamma_zero_at_one_matches_quadrature():
    oracle = gamma0_quadrature(1.0)
    assert oracle == pytest.approx(0.219383934, abs=1e-9)
    assert upper_incomplete_gamma_zero(1.0) == pytest.approx(oracle, rel=1e-10)


def test_gamma_zero_against_quadrature_grid():
    for x in np.logspace(-6, math.log10(50.0), 40):
        mine = upper_incomplete_gamma_zero(float(x))
        oracle = gamma0_quadrature(float(x))
        assert abs(mine - oracle) <= 1e-8 * abs(oracle)


def test_gamma_zero_small_argument_asymptote():
    x = 1e-8
    asymptote = -math.log(x) - EULER_GAMMA
    assert upper_incomplete_gamma_zero(x) == pytest.approx(asymptote, rel=1e-6)


def test_gamma_zero_large_argument_envelope():
    # e^-x / x is an upper envelope of the integrand's tail
    assert upper_incomplete_gamma_zero(10.0) <= math.exp(-10.0) / 10.0
    assert upper_incomplete_gamma_zero(10.0) == pytest.approx(
        gamma0_quadrature(10.0), rel=1e-10)


def test_gamma_zero_domain_error():
    with pytest.raises(ParameterError):
        upper_incomplete_gamma_zero(0.0)
    with pytest.raises(ParameterError):
        upper_incomplete_gamma_zero(-1.0)


# ---------------------------------------------------------------------------
# Pairwise distinct-timer bound
# ---------------------------------------------------------------------------

def test_separation_term_large_b_limit():
    # with the grid offset out of the picture the bound collapses to
    # rate_i/(rate_i + beta*rate_j) + swapped; at equal rates, beta=2: 2/3
    total = (timer_separation_term(500, 2.0, 0.0, 0.0)
             + timer_separation_term(500, 2.0, 0.0, 0.0))
    assert abs(total - 2.0 / 3.0) <= 1e-9


def test_separation_term_symmetric_arguments_equal():
    a = timer_separation_term(25, 1.4, 3.0, 3.0)
    b = timer_separation_term(25, 1.4, 3.0, 3.0)
    assert a == b
    mixed = (timer_separation_term(25, 1.4, 1.0, 5.0),
             timer_separation_term(25, 1.4, 5.0, 1.0))
    assert mixed[0] != mixed[1]


def test_separation_term_monotone_in_offset():
    assert (timer_separation_term(10, 1.5, 0.0, 0.0)
            >= timer_separation_term(5, 1.5, 0.0, 0.0))


def test_separation_term_beta_near_one_approaches_certainty():
    total = 2 * timer_separation_term(10_000_000, 1.000001, 0.0, 0.0)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_separation_sum_converges_to_limit_monotonically():
    beta, lri, lrj = 1.5, 1.0, 2.5
    limit_head = 1.0 / (1.0 + math.exp(lrj + math.log(beta) - lri))
    limit = limit_head + 1.0 / (1.0 + math.exp(lri + math.log(beta) - lrj))
    errors = []
    for b in (1, 3, 10, 30, 100):
        total = (timer_separation_term(b, beta, lri, lrj)
                 + timer_separation_term(b, beta, lrj, lri))
        errors.append(abs(total - limit))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-12


def test_separation_term_extreme_rates_stay_in_unit_interval():
    for lri in (0.0, 50.0, 700.0, 5000.0):
        for lrj in (0.0, 50.0, 5000.0):
            for b in (0, 250):
                v = timer_separation_term(b, 1.1, lri, lrj)
                assert 0.0 <= v <= 1.0 and math.isfinite(v)


def _distinct_share(lri, lrj, params, samples, seed):
    """Monte Carlo share of timer pairs in different minislots, and its
    Laplace-smoothed standard error."""
    key = contention_keys(_log_timers(RngStream(seed), (lri, lrj), samples),
                          0.0, params, discrete=True)
    d = minislots(key, params.b_offset)
    distinct = int(np.count_nonzero(d[0] != d[1]))
    p_smooth = (distinct + 1) / (samples + 2)
    return distinct / samples, math.sqrt(p_smooth * (1 - p_smooth) / samples)


def test_distinct_timer_bound_monte_carlo_confirms():
    params = BackoffParams(alpha=2.0, beta=1.1, b_offset=250)
    bound = distinct_timer_bound(0.0, 0.0, params)
    p_hat, stderr = _distinct_share(0.0, 0.0, params, 100_000, 61)
    assert p_hat >= bound - 3 * stderr


def test_distinct_timer_bound_coarse_grid_forces_equal_timers():
    # beta = 1e6 with no offset maps every draw into minislot 0
    params = BackoffParams(alpha=2.0, beta=1e6, b_offset=0)
    bound = distinct_timer_bound(0.0, 0.0, params)
    p_hat, stderr = _distinct_share(0.0, 0.0, params, 20_000, 62)
    assert p_hat <= 1e-3
    assert bound <= p_hat + 1e-12
    assert p_hat >= bound - 3 * stderr


def test_distinct_timer_bound_without_mc_has_no_verdict():
    # the bound is a closed form only: both directions' terms summed
    params = BackoffParams(alpha=2.0, beta=1.2, b_offset=10)
    bound = distinct_timer_bound(1.0, 2.0, params)
    assert isinstance(bound, float)
    assert bound == (timer_separation_term(10, 1.2, 1.0, 2.0)
                     + timer_separation_term(10, 1.2, 2.0, 1.0))
    assert 0.0 <= bound <= 1.0


# ---------------------------------------------------------------------------
# Idle-time (overhead) bound
# ---------------------------------------------------------------------------

def test_overhead_bound_monotone_in_offset():
    ages = np.array([1, 2, 3, 4])
    weights = np.ones(4)
    lo = overhead_upper_bound(ages, weights,
                              BackoffParams(alpha=1.2, beta=1.3, b_offset=250))
    hi = overhead_upper_bound(ages, weights,
                              BackoffParams(alpha=1.2, beta=1.3, b_offset=300))
    assert hi >= lo


def test_overhead_bound_large_offset_approximation():
    # bound in minislots - 1 approaches B - log_beta(rate_total)
    beta = 1.5
    log_rate = 20.0
    b = round(10 * log_rate / math.log(beta))
    params = BackoffParams(alpha=1.2, beta=beta, b_offset=b)
    slots = overhead_upper_bound_from_log_rate(log_rate, params, minislots=True)
    approx = b - log_rate / math.log(beta)
    assert slots - 1.0 == pytest.approx(approx, rel=0.01)


def test_overhead_bound_sampled_mean_stays_below():
    ages = np.array([1, 2, 3, 5, 8])
    weights = np.ones(5)
    params = BackoffParams(alpha=1.3, beta=1.25, b_offset=120)
    bound = overhead_upper_bound(ages, weights, params, minislots=True)
    log_z = _log_timers(RngStream(63),
                        aoi_exponents(ages, weights) * params.ln_alpha, 100_000)
    d = minislots(contention_keys(log_z, 0.0, params, discrete=True),
                  params.b_offset).min(axis=0)
    assert float(d.mean()) <= bound


def test_overhead_bound_is_well_scaled_for_huge_rates():
    # exponents far beyond linear-domain range still evaluate cleanly
    ages = np.array([40, 41, 42])
    weights = np.array([3.0, 3.0, 3.0])
    params = BackoffParams(alpha=2.0, beta=1.2, b_offset=250)
    bound = overhead_upper_bound(ages, weights, params)
    assert math.isfinite(bound)
    assert bound == pytest.approx(1.0 / params.minislots_per_update)


def _exp1_bound(arg_log, params):
    """1 + E1(x) / ln(beta) with ln x = arg_log, from scipy's E1."""
    from scipy.special import exp1

    return 1.0 + float(exp1(math.exp(arg_log))) / params.ln_beta


def test_overhead_bound_matches_exp1_down_to_min_normal():
    params = BackoffParams(alpha=1.1, beta=2.0, b_offset=100)
    shift = params.b_offset * params.ln_beta
    for arg_log in np.linspace(LN_MIN_NORMAL, 5.0, 60):
        slots = overhead_upper_bound_from_log_rate(arg_log + shift, params,
                                                   minislots=True)
        assert slots == pytest.approx(_exp1_bound(arg_log, params), rel=1e-10)


def test_overhead_bound_below_min_normal_uses_asymptote():
    # exp(arg_log) is subnormal or 0 here; Gamma(0, x) = -ln x - gamma
    # up to x, which is far below float resolution
    params = BackoffParams(alpha=1.1, beta=2.0, b_offset=2000)
    shift = params.b_offset * params.ln_beta
    for arg_log in (LN_MIN_NORMAL - 1e-9, -720.0, -745.5, -1000.0, -1e5):
        slots = overhead_upper_bound_from_log_rate(arg_log + shift, params,
                                                   minislots=True)
        assert slots == pytest.approx(
            1.0 + (-arg_log - EULER_GAMMA) / params.ln_beta, rel=1e-15)
    # the two sides of the threshold meet
    below = overhead_upper_bound_from_log_rate(LN_MIN_NORMAL - 1e-12 + shift,
                                               params, minislots=True)
    assert below == pytest.approx(_exp1_bound(LN_MIN_NORMAL, params),
                                  rel=1e-12)


def test_overhead_bound_survives_underflowing_cells():
    # ages 1..10 at alpha = 1.1: exp() of the Gamma argument underflows
    ages = np.arange(1, 11)
    for beta, b_offset in ((2.0, 2000), (1.196, 5000)):
        params = BackoffParams(alpha=1.1, beta=beta, b_offset=b_offset)
        log_total = log_sum_exp(aoi_exponents(ages, np.ones(10)) * math.log(1.1))
        arg_log = log_total - b_offset * params.ln_beta
        assert arg_log < LN_MIN_NORMAL
        slots = overhead_upper_bound(ages, np.ones(10), params, minislots=True)
        assert slots == pytest.approx(
            1.0 + (-arg_log - EULER_GAMMA) / params.ln_beta, rel=1e-15)


def test_overhead_bound_time_vs_minislot_units():
    ages = np.array([1, 2])
    weights = np.ones(2)
    params = BackoffParams(alpha=1.5, beta=1.3, b_offset=100)
    t = overhead_upper_bound(ages, weights, params)
    slots = overhead_upper_bound(ages, weights, params, minislots=True)
    assert slots == pytest.approx(t * params.minislots_per_update)


# ---------------------------------------------------------------------------
# Match probabilities and drift
# ---------------------------------------------------------------------------

def test_match_probability_two_source_anchor():
    # rates [9, 9**4]: mass on the older source is 6561/6570
    mass = match_probability(aoi_exponents([1, 2], np.ones(2)), 9.0)
    assert mass == pytest.approx(6561 / 6570, rel=1e-12)
    assert mass >= 0.9


def test_match_probability_all_tie_is_one():
    assert match_probability(aoi_exponents([3, 3, 3], np.ones(3)), 2.0) \
        == pytest.approx(1.0)


def test_match_probability_threshold_instance():
    ages = np.array([2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    assert match_probability(aoi_exponents(ages, np.ones(10)), 81.0) >= 0.9


def test_aoii_match_probability():
    assert match_probability(np.array([0, 0, 4]), 2.0) \
        == pytest.approx(16 / 18)  # rates [1, 1, 16]
    assert match_probability(np.array([0, 0, 0]), 2.0) == pytest.approx(1.0)


def test_drift_pair_symmetric_state():
    for k in (1, 4, 9):
        ages = np.full(6, k)
        d_csma, d_sr = lyapunov_drift_pair(ages, np.ones(6), 5.0)
        assert d_csma == pytest.approx(6 - k)
        assert d_sr == pytest.approx(6 - k)


def test_drift_pair_anchor_state():
    # rates [10, 1e9]: nearly all mass on the age-3 source
    d_csma, d_sr = lyapunov_drift_pair(np.array([1, 3]), np.ones(2), 10.0)
    r2 = 1e9 / (1e9 + 10.0)
    r1 = 10.0 / (1e9 + 10.0)
    assert d_csma == pytest.approx(2.0 - (r1 * 1 + r2 * 3), rel=1e-12)
    assert d_sr == pytest.approx(0.0, abs=1e-12)
    assert d_csma <= d_sr


def test_drift_pair_log_domain_states():
    # ages large enough that the rates only exist in log domain
    d_csma, d_sr = lyapunov_drift_pair(np.array([10, 50]), np.ones(2), 3.0)
    assert math.isfinite(d_csma) and math.isfinite(d_sr)
    assert d_csma == pytest.approx(2.0 - 50.0)  # all mass on age 50


# ---------------------------------------------------------------------------
# Array forms: a (trials, n) block evaluates row by row
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 12), n=st.integers(1, 8), top_age=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_array_forms_equal_row_calls(trials, n, top_age, seed):
    # small top ages make tied argmax sets common
    rng = np.random.default_rng(seed)
    ages = rng.integers(1, top_age + 1, (trials, n))
    weights = rng.integers(1, 6, (trials, n)).astype(float)
    exponent = aoi_exponents(ages, weights)
    alpha = 1.0 + 100.0 * rng.random(trials)
    probs = scheduling_probabilities(alpha, exponent)
    probs_fixed = scheduling_probabilities(3.0, exponent)
    mass = match_probability(exponent, alpha)
    d_csma, d_sr = lyapunov_drift_pair(ages, weights, alpha)
    threshold = drift_alpha_threshold(weights)
    close = dict(rtol=1e-12, atol=1e-12)
    for k in range(trials):
        a = float(alpha[k])
        np.testing.assert_allclose(
            probs[k], scheduling_probabilities(a, exponent[k]), **close)
        np.testing.assert_allclose(
            probs_fixed[k], scheduling_probabilities(3.0, exponent[k]), **close)
        np.testing.assert_allclose(mass[k], match_probability(exponent[k], a),
                                   **close)
        np.testing.assert_allclose(
            (d_csma[k], d_sr[k]), lyapunov_drift_pair(ages[k], weights[k], a),
            **close)
        np.testing.assert_allclose(threshold[k],
                                   drift_alpha_threshold(weights[k]), **close)
