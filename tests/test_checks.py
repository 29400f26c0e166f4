"""Fast passes over the randomized verifiers; the acceptance suite runs
them at their full trial counts."""

import pytest

from aoisim import checks
from aoisim.checks import (
    CHECKS,
    check_distinct_timer_bound,
    check_drift_dominance,
    check_idle_time_bound,
    check_max_aoii_match,
    check_max_weight_match,
    check_winner_distribution,
)


def test_checks_registry_ids():
    assert sorted(CHECKS) == ["lemma1", "lemma2", "thm1", "thm3", "thm4", "thm5"]


def test_max_weight_match_small():
    result = check_max_weight_match(trials=300)
    assert result.ok and result.worst_margin >= 0.0


def test_max_weight_match_fails_below_threshold():
    # alpha = 2 cannot guarantee a 0.9 mass at n = 10
    result = check_max_weight_match(trials=300, alpha=2.0)
    assert not result.ok
    assert "FAIL" in result.summary()


def test_max_aoii_match_small():
    assert check_max_aoii_match(trials=300).ok


def test_winner_distribution_small():
    assert check_winner_distribution(trials=6, samples=20_000).ok


def test_drift_dominance_small():
    assert check_drift_dominance(trials=500).ok


def test_distinct_timer_bound_small():
    assert check_distinct_timer_bound(samples=20_000).ok


def test_idle_time_bound_small():
    result = check_idle_time_bound(trials=4, samples=20_000)
    assert result.ok
    assert "PASS" in result.summary()


def test_checks_deterministic():
    a = check_drift_dominance(trials=200, seed=5)
    b = check_drift_dominance(trials=200, seed=5)
    assert a == b


def test_block_checks_cover_every_state(monkeypatch):
    whole = check_max_aoii_match(trials=300, alpha=20.0, seed=3)
    monkeypatch.setattr(checks, "_BLOCK", 64)
    assert checks._blocks(300) == [64, 64, 64, 64, 44]
    # one draw per block, so the blocks concatenate to the same states
    assert check_max_aoii_match(trials=300, alpha=20.0, seed=3) == whole
    assert check_max_weight_match(trials=300).ok
    assert check_drift_dominance(trials=300).ok
