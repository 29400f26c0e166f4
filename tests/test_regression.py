"""Pinned results for a small seed grid.

Every SimulationResult field of each case is stored as its repr, so
floats must match bit for bit; library runs also pin the sha256 of
their per-frame trace.  The grid covers max-weight ties, the stationary
randomized rule, idealized plain and fresh contention, near-realistic
runs including minislot-0 saturation (beta = 1.01), both AoII contention
kinds and max-AoII over Markov sources, and both substream layouts: the
library layout of run() and the per-replication layout of experiments.

Regenerate the pins with `PYTHONPATH=src python tests/test_regression.py`
only when a change to results is intended, and record why in CHANGES.md.
"""

import hashlib
import io
import json
from dataclasses import fields
from pathlib import Path

import pytest

from aoisim import BackoffParams, ExperimentSpec, NetworkConfig, PolicyKind, run
from aoisim.experiments import SweepPoint, run_replication

PINS = Path(__file__).with_name("regression_pins.json")

K = PolicyKind
NR = dict(alpha=1.1, beta=1.1, b_offset=256)
NR_SATURATED = dict(alpha=1.1, beta=1.01, b_offset=260)
AOII = dict(alpha=2.1, beta=1.05, b_offset=251)

# (kind, weights, seed, horizon, horizon_unit, params, markov_q, rep);
# rep None runs the library layout, an int the experiment layout.
_GRID = [
    (K.MAX_WEIGHT, (4.0, 1.0, 1.0), 3, 1500, "frames", None, None, None),
    (K.MAX_WEIGHT, (1.0,) * 5, 4, 1500, "deliveries", None, None, 1),
    (K.STATIONARY_RANDOMIZED, (1.0, 2.0, 3.0, 4.0), 5, 1500, "frames",
     None, None, None),
    (K.STATIONARY_RANDOMIZED, (1.0,) * 3, 6, 1500, "frames", None, None, 0),
    (K.IDEALIZED_CSMA, (1.0,) * 4, 7, 1500, "frames",
     dict(alpha=2.0), None, None),
    (K.IDEALIZED_CSMA, (1.0,) * 4, 7, 1500, "frames",
     dict(alpha=2.0), None, 2),
    (K.IDEALIZED_FRESH_CSMA, (1.0,) * 6, 8, 1500, "deliveries",
     dict(alpha=1.2), None, None),
    (K.IDEALIZED_FRESH_CSMA, (1.0, 2.0, 0.5), 9, 1500, "frames",
     dict(alpha=3.0), None, 0),
    (K.NEAR_REALISTIC_FRESH_CSMA, (1.0,) * 6, 10, 1500, "deliveries",
     NR, None, None),
    (K.NEAR_REALISTIC_FRESH_CSMA, (1.0,) * 10, 11, 1500, "frames",
     dict(NR, beta=1.2, b_offset=5), None, 1),
    (K.NEAR_REALISTIC_FRESH_CSMA, (1.0,) * 10, 12, 600, "frames",
     NR_SATURATED, None, None),
    (K.NEAR_REALISTIC_FRESH_CSMA, (1.0,) * 10, 12, 600, "frames",
     NR_SATURATED, None, 0),
    (K.MAX_WEIGHT, (1.0,) * 4, 13, 1500, "deliveries", AOII, 0.05, 0),
    (K.MAX_AOII, (1.0,) * 4, 14, 1500, "frames", None, 0.2, None),
    (K.IDEALIZED_FRESH_CSMA_AOII, (1.0,) * 5, 15, 1500, "deliveries",
     AOII, 0.05, None),
    (K.IDEALIZED_FRESH_CSMA_AOII, (1.0,) * 5, 15, 1500, "frames",
     AOII, 0.2, 1),
    (K.NEAR_REALISTIC_FRESH_CSMA_AOII, (1.0,) * 5, 16, 1500, "deliveries",
     AOII, 0.05, None),
    (K.NEAR_REALISTIC_FRESH_CSMA_AOII, (1.0,) * 8, 17, 1500, "frames",
     dict(AOII, beta=1.3, b_offset=8), 0.2, 0),
]


def _case_id(case) -> str:
    kind, weights, seed, _, unit, _, markov_q, rep = case
    layout = "library" if rep is None else f"rep{rep}"
    markov = "" if markov_q is None else f"-q{markov_q}"
    return f"{kind.value}-n{len(weights)}-s{seed}-{unit}{markov}-{layout}"


def _simulate(case) -> dict:
    kind, weights, seed, horizon, unit, params, markov_q, rep = case
    config = NetworkConfig(n_sources=len(weights), weights=weights,
                           horizon_frames=horizon, seed=seed)
    params = BackoffParams(**params) if params is not None else None
    if rep is None:
        buf = io.StringIO()
        result = run(config, kind, params, markov_q=markov_q,
                     horizon_unit=unit, trace=buf)
        trace = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    else:
        spec = ExperimentSpec(scenario="pin", policies=(kind,),
                              n_sources=len(weights), weights=weights,
                              horizon=horizon, horizon_unit=unit,
                              base_seed=seed, markov_q=markov_q)
        result = run_replication(spec, SweepPoint(None, config, params),
                                 kind, rep)
        trace = None
    pinned = {f.name: repr(getattr(result, f.name)) for f in fields(result)}
    pinned["trace_sha256"] = trace
    return pinned


@pytest.mark.parametrize("case", _GRID, ids=_case_id)
def test_results_match_pins(case):
    expected = json.loads(PINS.read_text())[_case_id(case)]
    assert _simulate(case) == expected


if __name__ == "__main__":
    PINS.write_text(json.dumps({_case_id(c): _simulate(c) for c in _GRID},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(_GRID)} pins to {PINS}")
