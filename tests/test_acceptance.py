"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion; expensive simulations are shared session fixtures (see
conftest).  Tolerances here are contractual, not tunable.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from aoisim import (
    BackoffParams,
    NetworkConfig,
    PolicyKind,
    overhead_upper_bound,
    run,
    upper_incomplete_gamma_zero,
)
from aoisim.analysis import EULER_GAMMA
from aoisim.checks import (
    check_distinct_timer_bound,
    check_drift_dominance,
    check_idle_time_bound,
    check_max_aoii_match,
    check_max_weight_match,
    check_winner_distribution,
)
from aoisim.cli import main

SEED = 11


def _report(cid: str, message: str) -> None:
    print(f"[{cid}] PASS {message}")


def _collision_run(beta: float, b_offset: int, frames: int = 20_000):
    config = NetworkConfig(n_sources=10, weights=tuple([1.0] * 10),
                           horizon_frames=frames, seed=SEED)
    params = BackoffParams(alpha=1.1, beta=beta, b_offset=b_offset)
    return run(config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA, params,
               horizon_unit="frames")


def test_c01_centralized_baselines(run_max_weight, run_stationary):
    """Round-robin equivalence of symmetric max-weight, and the 1/pi mean
    of the optimal stationary randomized policy."""
    mw = run_max_weight.normalized_weighted_avg_aoi
    sr = run_stationary.normalized_weighted_avg_aoi
    assert mw == pytest.approx(5.5, rel=0.01)
    assert sr == pytest.approx(10.0, rel=0.03)
    _report("C1", f"max-weight {mw:.4f} (5.5 +-1%), "
                  f"stationary randomized {sr:.4f} (10 +-3%)")


def test_c02_distributed_tracks_centralized(run_max_weight, run_stationary,
                                            run_fresh_idealized,
                                            run_fresh_near_realistic):
    mw = run_max_weight.normalized_weighted_avg_aoi
    sr = run_stationary.normalized_weighted_avg_aoi
    ideal = run_fresh_idealized.normalized_weighted_avg_aoi
    nr = run_fresh_near_realistic.normalized_weighted_avg_aoi
    assert ideal == pytest.approx(mw, rel=0.05)
    assert nr == pytest.approx(ideal, rel=0.10)
    assert nr < sr
    _report("C2", f"idealized {ideal:.4f} within 5% of max-weight {mw:.4f}; "
                  f"near-realistic {nr:.4f} within 10% and below {sr:.4f}")


def test_c03_winner_distribution_matches_closed_form():
    result = check_winner_distribution(trials=20, samples=100_000, seed=SEED)
    assert result.ok, result.summary()
    _report("C3", result.summary())


def test_c04_match_probability_guarantees():
    mw = check_max_weight_match(trials=10_000, n=10, delta=0.1, alpha=81.0,
                                seed=SEED)
    assert mw.ok, mw.summary()
    aoii = check_max_aoii_match(trials=10_000, n=10, delta=0.1, alpha=81.0,
                                seed=SEED)
    assert aoii.ok, aoii.summary()
    _report("C4", f"{mw.summary()}; {aoii.summary()}")


def test_c05_drift_domination():
    result = check_drift_dominance(trials=10_000, n=10, seed=SEED)
    assert result.ok, result.summary()
    _report("C5", result.summary())


def test_c06_distinct_timer_bound_grid():
    result = check_distinct_timer_bound(samples=100_000, seed=SEED)
    assert result.ok, result.summary()
    _report("C6", result.summary())


def test_c07_idle_time_bound(run_fresh_near_realistic, sym10_config,
                             sym10_params):
    per_state = check_idle_time_bound(trials=10, samples=100_000, seed=SEED)
    assert per_state.ok, per_state.summary()
    nr = run_fresh_near_realistic
    horizon_bound = overhead_upper_bound(np.asarray(nr.per_source_avg_aoi),
                                         sym10_config.weights_array,
                                         sym10_params, minislots=True)
    assert nr.avg_overhead_minislots <= 1.10 * horizon_bound
    _report("C7", f"{per_state.summary()}; full-run overhead "
                  f"{nr.avg_overhead_minislots:.1f} <= 1.1 x {horizon_bound:.1f}")


def test_c08_collision_regimes():
    saturated = _collision_run(beta=1.01, b_offset=260)
    assert saturated.collision_rate >= 0.99
    rates = {}
    for beta in (1.1, 1.2, 1.5, 2.0):
        rates[beta] = _collision_run(beta=beta, b_offset=260).collision_rate
        assert rates[beta] <= 0.08
    for b in (0, 5, 10):
        assert _collision_run(beta=1.1, b_offset=b).collision_rate >= 0.99
    plateau = {}
    for b in (250, 260, 300):
        plateau[b] = _collision_run(beta=1.1, b_offset=b).collision_rate
        assert plateau[b] <= 0.05
    _report("C8", f"beta=1.01 rate {saturated.collision_rate:.4f} >= 0.99; "
                  f"beta grid max {max(rates.values()):.4f} <= 0.08; "
                  f"B <= 10 saturated; plateau max {max(plateau.values()):.4f}"
                  " <= 0.05")


def test_c09_overhead_stays_small(run_fresh_near_realistic, sym10_params):
    overhead = run_fresh_near_realistic.avg_overhead_minislots
    m = sym10_params.minislots_per_update
    assert 0.0 <= overhead <= 0.05 * m
    _report("C9", f"average overhead {overhead:.1f} minislots "
                  f"({overhead / m:.2%} of an update, envelope 5%)")


def test_c10_aoii_scheduling_orderings(markov_runs):
    mw = markov_runs[PolicyKind.MAX_WEIGHT]
    ideal = markov_runs[PolicyKind.IDEALIZED_FRESH_CSMA_AOII]
    nr = markov_runs[PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII]

    assert ideal.normalized_avg_aoii < mw.normalized_avg_aoii
    between = (ideal.normalized_avg_aoii
               <= nr.normalized_avg_aoii <= mw.normalized_avg_aoii)
    close = (abs(nr.normalized_avg_aoii - ideal.normalized_avg_aoii)
             <= 0.10 * ideal.normalized_avg_aoii)
    assert between or close
    # mismatch-age gains cost plain age
    assert ideal.normalized_weighted_avg_aoi > mw.normalized_weighted_avg_aoi
    assert nr.normalized_weighted_avg_aoi > mw.normalized_weighted_avg_aoi
    _report("C10", f"mean mismatch age: idealized {ideal.normalized_avg_aoii:.4f}"
                   f" < near-realistic {nr.normalized_avg_aoii:.4f}"
                   f" (within band) < max-weight {mw.normalized_avg_aoii:.4f};"
                   f" AoI ordering inverted as expected")


def test_c11_incomplete_gamma_kernel():
    worst = 0.0
    for x in np.logspace(-6, math.log10(50.0), 40):
        oracle, _ = integrate.quad(lambda s: math.exp(-math.exp(s)),
                                   math.log(float(x)), 50.0,
                                   epsabs=0.0, epsrel=1e-12, limit=300)
        rel = abs(upper_incomplete_gamma_zero(float(x)) - oracle) / oracle
        worst = max(worst, rel)
    assert worst <= 1e-8
    x = 1e-8
    asym = -math.log(x) - EULER_GAMMA
    rel_asym = abs(upper_incomplete_gamma_zero(x) - asym) / asym
    assert rel_asym <= 1e-6
    _report("C11", f"quadrature grid worst rel err {worst:.2e} <= 1e-8; "
                   f"small-x asymptote rel err {rel_asym:.2e} <= 1e-6")


def test_c12_preset_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["preset", "fig3_symmetric", "--n-values", "2,5",
            "--horizon", "2000", "--seed", "42"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report("C12", f"rerun of fig3_symmetric produced {len(a.read_bytes())} "
                   "identical bytes")
