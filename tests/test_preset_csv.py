"""Pinned specs and CSV bytes of the presets.

Each CSV case runs a preset at a small size through run_experiment and
rows_to_csv and compares the sha256 of the CSV text with a stored pin,
so any change in a result, its aggregation or its formatting shows.
fig3_symmetric and fig10_aoii sweep N = 2, 5, 10 to 300 deliveries;
fig6_beta_collisions and fig7_B_collisions keep their N = 10 sweeps at
300 frames.  Every case runs 2 replications.

Each spec case pins the sha256 of the repr of a preset's ExperimentSpec
and of its resolved sweep points, for every preset name at the default
network sizes, at N = 2, 7 and with natural logs.  These cover the
presets no CSV pin runs, fig5_alpha_sweep among them.  A preset that
sweeps another parameter than N refuses N = 2, 7; its case pins the
refusal's message instead.

Regenerate the pins with `PYTHONPATH=src python tests/test_preset_csv.py`
only when a change to results is intended, and record why in CHANGES.md.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from aoisim import ParameterError, preset, run_experiment
from aoisim.experiments import PRESET_NAMES, resolve_points, rows_to_csv

PINS = Path(__file__).with_name("preset_csv_pins.json")
SPEC_PINS = Path(__file__).with_name("preset_spec_pins.json")

PRESETS = {
    "fig3_symmetric": dict(n_values=(2, 5, 10)),
    "fig6_beta_collisions": {},
    "fig7_B_collisions": {},
    "fig10_aoii": dict(n_values=(2, 5, 10)),
}

SPEC_VARIANTS = {
    "default": {},
    "n2_7": dict(n_values=(2, 7)),
    "natural_log": dict(log_base=math.e),
}

# Presets that run the same simulations as another; only the scenario
# column of their CSVs differs.
ALIASES = {
    "fig8_beta_overhead": "fig6_beta_collisions",
    "fig9_B_overhead": "fig7_B_collisions",
    "fig11_aoii_aoi": "fig10_aoii",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_sha256(name: str) -> str:
    spec = preset(name, horizon=300, replications=2, **PRESETS[name])
    return _sha256(rows_to_csv(run_experiment(spec)))


def _spec_sha256(name: str, variant: str) -> str:
    try:
        spec = preset(name, **SPEC_VARIANTS[variant])
    except ParameterError as exc:
        return f"ParameterError: {exc}"
    return _sha256(repr(spec) + "\n" + repr(resolve_points(spec)))


def _spec_pins() -> dict:
    return {f"{name}/{variant}": _spec_sha256(name, variant)
            for name in PRESET_NAMES for variant in SPEC_VARIANTS}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_csv_matches_pin(name):
    assert _csv_sha256(name) == json.loads(PINS.read_text())[name]


@pytest.mark.parametrize("variant", SPEC_VARIANTS)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_spec_matches_pin(name, variant):
    pins = json.loads(SPEC_PINS.read_text())
    assert _spec_sha256(name, variant) == pins[f"{name}/{variant}"]


@pytest.mark.parametrize("alias", ALIASES)
def test_alias_preset_csv_equals_its_base(alias):
    base = ALIASES[alias]
    sizes = dict(n_values=(2, 5)) if base == "fig10_aoii" else {}
    base_rows = run_experiment(preset(base, horizon=60, **sizes))
    alias_rows = run_experiment(preset(alias, horizon=60, **sizes))
    renamed = [dict(row, scenario=alias) for row in base_rows]
    assert rows_to_csv(alias_rows) == rows_to_csv(renamed)


if __name__ == "__main__":
    PINS.write_text(json.dumps({name: _csv_sha256(name) for name in PRESETS},
                               indent=1, sort_keys=True) + "\n")
    SPEC_PINS.write_text(json.dumps(_spec_pins(), indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {len(PRESETS)} pins to {PINS} and "
          f"{len(PRESET_NAMES) * len(SPEC_VARIANTS)} to {SPEC_PINS}")
