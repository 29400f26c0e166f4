"""Shared fixtures: the expensive benchmark runs are computed once per
session and reused by the unit and acceptance tests."""

import numpy as np
import pytest

from aoisim import (
    NetworkConfig,
    PolicyKind,
    recommended_defaults,
    run,
)

HORIZON = 100_000
SEED = 11


@pytest.fixture(scope="session")
def sym10_config():
    return NetworkConfig(n_sources=10, weights=tuple([1.0] * 10),
                         horizon_frames=HORIZON, seed=SEED)


@pytest.fixture(scope="session")
def sym10_params(sym10_config):
    return recommended_defaults(10, sym10_config.weights)


def _run(config, kind, params=None, **kwargs):
    return run(config, kind, params, horizon_unit="deliveries", **kwargs)


@pytest.fixture(scope="session")
def run_max_weight(sym10_config):
    return _run(sym10_config, PolicyKind.MAX_WEIGHT)


@pytest.fixture(scope="session")
def run_stationary(sym10_config):
    return _run(sym10_config, PolicyKind.STATIONARY_RANDOMIZED)


@pytest.fixture(scope="session")
def run_fresh_idealized(sym10_config, sym10_params):
    return _run(sym10_config, PolicyKind.IDEALIZED_FRESH_CSMA, sym10_params)


@pytest.fixture(scope="session")
def run_fresh_near_realistic(sym10_config, sym10_params):
    return _run(sym10_config, PolicyKind.NEAR_REALISTIC_FRESH_CSMA, sym10_params)


@pytest.fixture(scope="session")
def markov_runs(sym10_config):
    """Three policies monitoring symmetric two-state Markov sources."""
    params = recommended_defaults(10, sym10_config.weights, aoii=True)
    out = {}
    for kind in (PolicyKind.MAX_WEIGHT,
                 PolicyKind.IDEALIZED_FRESH_CSMA_AOII,
                 PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII):
        out[kind] = _run(sym10_config, kind, params, markov_q=0.05)
    return out
