"""Pinned CSV bytes of four small presets.

Each case runs a preset at a small size through run_experiment and
rows_to_csv and compares the sha256 of the CSV text with a stored pin,
so any change in a result, its aggregation or its formatting shows.
fig3_symmetric and fig10_aoii sweep N = 2, 5, 10 to 300 deliveries;
fig6_beta_collisions and fig7_B_collisions keep their N = 10 sweeps at
300 frames.  Every case runs 2 replications.

Regenerate the pins with `PYTHONPATH=src python tests/test_preset_csv.py`
only when a change to results is intended, and record why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aoisim import preset, run_experiment
from aoisim.experiments import rows_to_csv

PINS = Path(__file__).with_name("preset_csv_pins.json")

PRESETS = {
    "fig3_symmetric": dict(n_values=(2, 5, 10)),
    "fig6_beta_collisions": {},
    "fig7_B_collisions": {},
    "fig10_aoii": dict(n_values=(2, 5, 10)),
}


def _csv_sha256(name: str) -> str:
    spec = preset(name, horizon=300, replications=2, **PRESETS[name])
    csv = rows_to_csv(run_experiment(spec))
    return hashlib.sha256(csv.encode()).hexdigest()


@pytest.mark.parametrize("name", PRESETS)
def test_preset_csv_matches_pin(name):
    assert _csv_sha256(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    PINS.write_text(json.dumps({name: _csv_sha256(name) for name in PRESETS},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(PRESETS)} pins to {PINS}")
