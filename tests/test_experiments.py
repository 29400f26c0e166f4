import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aoisim import ParameterError, PolicyKind, experiments, parse_config, preset
from aoisim.experiments import (
    ExperimentSpec,
    resolve_points,
    rows_to_csv,
    run_experiment,
)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_preset_fig3_parameters_at_n10():
    spec = preset("fig3_symmetric")
    point = [p for p in resolve_points(spec) if p.config.n_sources == 10][0]
    assert point.params.alpha == pytest.approx(1.1)
    assert point.params.beta == pytest.approx(1.1)
    assert point.params.b_offset == 260
    assert point.params.minislots_per_update == 10_000
    assert point.config.weights == tuple([1.0] * 10)


def test_preset_fig3_natural_log_variant():
    spec = preset("fig3_symmetric", log_base=math.e)
    point = [p for p in resolve_points(spec) if p.config.n_sources == 10][0]
    assert point.params.beta == pytest.approx(1.1 + math.log(math.log(10)))


def test_preset_fig4_sqrt_weights():
    spec = preset("fig4_sqrt_weights", n_values=(4,))
    point = resolve_points(spec)[0]
    assert point.config.weights == pytest.approx(
        (1.0, math.sqrt(2), math.sqrt(3), 2.0))


def test_preset_fig10_aoii_parameters():
    spec = preset("fig10_aoii")
    assert spec.markov_q == pytest.approx(0.05)
    point = [p for p in resolve_points(spec) if p.config.n_sources == 10][0]
    assert point.params.alpha == pytest.approx(2.1)
    assert point.params.b_offset == 252


def test_preset_collision_scenarios_use_frame_horizons():
    for name in ("fig6_beta_collisions", "fig7_B_collisions",
                 "fig8_beta_overhead", "fig9_B_overhead"):
        assert preset(name).horizon_unit == "frames"
    for name in ("fig3_symmetric", "fig5_alpha_sweep", "fig10_aoii"):
        assert preset(name).horizon_unit == "deliveries"


def test_preset_unknown_name():
    with pytest.raises(ParameterError):
        preset("fig99_nonsense")


def test_preset_empty_n_values_is_a_config_error():
    # an empty size list is not the default sizes, and a preset that
    # sweeps another parameter takes no size list at all
    with pytest.raises(ParameterError, match="sweep_values is empty"):
        preset("fig3_symmetric", n_values=())
    with pytest.raises(ParameterError, match="only to N sweeps"):
        preset("fig6_beta_collisions", n_values=())


@pytest.mark.parametrize("name", ["fig5_alpha_sweep", "fig6_beta_collisions",
                                  "fig7_B_collisions", "fig8_beta_overhead",
                                  "fig9_B_overhead"])
def test_preset_without_an_n_sweep_refuses_n_values(name):
    # these presets run N = 10 at every point, so sizes given to them
    # could only be dropped
    with pytest.raises(ParameterError, match=f"{name} sweeps .* at N = 10"):
        preset(name, n_values=(5, 20))
    assert {p.config.n_sources for p in resolve_points(preset(name))} == {10}


def _fig10_params(spec):
    return [(p.sweep_value, p.params) for p in resolve_points(spec)]


def test_markov_sources_take_the_aoii_formulas_in_a_config():
    # a config file cannot name the formulas: Markov sources select the
    # AoII variant, so fig10's policies and q resolve fig10's parameters
    text = ("policies = max_weight, idealized_fresh_csma_aoii, "
            "near_realistic_fresh_csma_aoii\nn_sources = 10\nmarkov_q = 0.05\n"
            "sweep_param = n_sources\nsweep_values = 2, 5, 10, 20, 30")
    assert _fig10_params(parse_config(text)) == _fig10_params(
        preset("fig10_aoii"))
    point = resolve_points(parse_config(text))[2]
    assert (point.params.alpha, point.params.b_offset) == (2.1, 252)
    # explicit values still override the formulas
    spec = parse_config(text + "\nalpha = 1.5\nb_offset = 7")
    assert {(p.params.alpha, p.params.b_offset)
            for p in resolve_points(spec)} == {(1.5, 7)}


def test_one_policy_sub_spec_resolves_the_full_fig10_params():
    # the formulas follow the spec's Markov sources, not its policy list,
    # so a one-policy sub-spec (as the benchmark splits fig10) resolves
    # the full spec's parameters, max-weight's included
    full = preset("fig10_aoii")
    for value in full.sweep_values:
        for kind in full.policies:
            sub = replace(full, sweep_values=(value,), policies=(kind,))
            assert _fig10_params(sub) == [
                (v, params) for v, params in _fig10_params(full) if v == value]


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------

def test_resolve_points_sorted_by_sweep_value():
    spec = preset("fig5_alpha_sweep")
    values = [p.sweep_value for p in resolve_points(spec)]
    assert values == sorted(values)
    alphas = [p.params.alpha for p in resolve_points(spec)]
    assert alphas == list(values)


def test_spec_requires_sweep_pairing():
    with pytest.raises(ParameterError):
        ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                       n_sources=2, sweep_param="alpha")
    with pytest.raises(ParameterError):
        ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                       n_sources=2, sweep_param="weights",
                       sweep_values=(1.0,))


def test_spec_rejects_empty_policies():
    with pytest.raises(ParameterError):
        ExperimentSpec(scenario="x", policies=(), n_sources=2)


@pytest.mark.parametrize("mistake", [dict(alpha=0.5), dict(horizon=0),
                                     dict(weights=(1.0, 2.0)),
                                     dict(replications=1.5),
                                     dict(n_sources=2.5), dict(n_sources="3"),
                                     dict(horizon=2.5), dict(weights="sqrtt"),
                                     dict(policies=(PolicyKind.MAX_WEIGHT,
                                                    PolicyKind.MAX_AOII)),
                                     dict(policies=("max_weight",)),
                                     dict(policies=(None,)),
                                     dict(policies=([],)),
                                     dict(markov_q=1.5), dict(markov_q=-0.1),
                                     dict(markov_q=math.nan)])
def test_spec_mistakes_raise_one_error_type(monkeypatch, mistake):
    # a bad parameter, a bad horizon, a wrong weight count, a fractional
    # count, an unknown weights name, an AoII policy without Markov
    # sources, a policy that is not a PolicyKind (an unhashable one
    # too) and a flip probability outside [0, 1] are all
    # ParameterError, found by the spec or its points before any run
    # starts
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the mistake was found")
    monkeypatch.setattr(experiments, "run", no_run)
    with pytest.raises(ParameterError):
        run_experiment(ExperimentSpec(scenario="x", **{
            "policies": (PolicyKind.NEAR_REALISTIC_FRESH_CSMA,),
            "n_sources": 3, "horizon": 100, **mistake}))


def test_spec_counts_are_whole_numbers_at_construction():
    # found when the spec is made, not when it first runs; whole floats
    # are stored as ints
    for name, bad in [("n_sources", 2.5), ("horizon", 2.5), ("horizon", "9"),
                      ("replications", 1.5), ("replications", None)]:
        with pytest.raises(ParameterError, match=f"{name} must be a whole"):
            ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                           **{"n_sources": 3, name: bad})
    with pytest.raises(ParameterError, match="unknown weights 'sqrtt'"):
        ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                       n_sources=3, weights="sqrtt")
    spec = ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                          n_sources=3.0, horizon=100.0, replications=2.0)
    assert [type(v) for v in (spec.n_sources, spec.horizon,
                              spec.replications)] == [int, int, int]


@pytest.mark.parametrize("param, values", [
    ("n_sources", (2.7, 3.0)),
    ("b_offset", (5.9,)),
    ("b_offset", (math.nan,)),
    ("n_sources", ("3",)),
])
def test_spec_rejects_fractional_integer_sweep(param, values):
    with pytest.raises(ParameterError, match="sweep value must be a whole"):
        ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                       n_sources=2, sweep_param=param, sweep_values=values)


def test_spec_accepts_integral_float_sweep():
    spec = ExperimentSpec(scenario="x", policies=(PolicyKind.MAX_WEIGHT,),
                          n_sources=2, sweep_param="b_offset",
                          sweep_values=(0.0, 5.0))
    assert [p.params.b_offset for p in resolve_points(spec)] == [0, 5]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _tiny_spec(**overrides):
    base = dict(scenario="tiny",
                policies=(PolicyKind.MAX_WEIGHT,
                          PolicyKind.IDEALIZED_FRESH_CSMA),
                n_sources=3, horizon=300, horizon_unit="deliveries",
                base_seed=314, replications=1)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_run_experiment_row_count_and_order():
    spec = _tiny_spec(sweep_param="n_sources", sweep_values=(4.0, 2.0))
    rows = run_experiment(spec)
    assert len(rows) == 4  # 2 points x 2 policies
    assert [r["sweep_value"] for r in rows] == [2.0, 2.0, 4.0, 4.0]
    assert [r["policy"] for r in rows[:2]] == ["max_weight",
                                               "idealized_fresh_csma"]


def test_run_experiment_stderr_only_with_replications():
    rows_single = run_experiment(_tiny_spec())
    assert rows_single[0]["aoi_stderr"] is None
    rows_multi = run_experiment(_tiny_spec(replications=3))
    assert rows_multi[0]["aoi_stderr"] is not None
    assert rows_multi[0]["aoi_stderr"] >= 0.0


def test_run_experiment_overhead_bound_only_for_minislot_policies():
    # the bound holds for frame-age rates; AoII contention's rates are
    # alpha**(mismatch age), which it does not describe
    spec = _tiny_spec(policies=(PolicyKind.MAX_WEIGHT,
                                PolicyKind.NEAR_REALISTIC_FRESH_CSMA,
                                PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII),
                      markov_q=0.05)
    rows = run_experiment(spec)
    by_policy = {r["policy"]: r for r in rows}
    assert by_policy["max_weight"]["overhead_bound_minislots"] is None
    assert by_policy["near_realistic_fresh_csma_aoii"][
        "overhead_bound_minislots"] is None
    bound = by_policy["near_realistic_fresh_csma"]["overhead_bound_minislots"]
    assert bound is not None
    assert by_policy["near_realistic_fresh_csma"]["avg_overhead_minislots"] <= bound


def test_run_experiment_markov_fills_aoii_column():
    spec = _tiny_spec(policies=(PolicyKind.IDEALIZED_FRESH_CSMA_AOII,),
                      markov_q=0.05)
    rows = run_experiment(spec)
    assert rows[0]["normalized_avg_aoii"] is not None


def test_csv_bytes_are_deterministic():
    spec = _tiny_spec(policies=(PolicyKind.MAX_WEIGHT,
                                PolicyKind.NEAR_REALISTIC_FRESH_CSMA),
                      sweep_param="beta", sweep_values=(1.2, 1.4))
    a = rows_to_csv(run_experiment(spec))
    b = rows_to_csv(run_experiment(spec))
    assert a == b
    assert a.splitlines()[0].startswith("scenario,policy,n_sources")


def test_csv_changes_with_seed():
    a = rows_to_csv(run_experiment(_tiny_spec()))
    b = rows_to_csv(run_experiment(_tiny_spec(base_seed=315)))
    assert a != b


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

GOOD_CONFIG = """
# demo experiment
scenario = demo
policies = max_weight, near_realistic_fresh_csma
n_sources = 4
weights = sqrt
horizon = 500
horizon_unit = deliveries
seed = 99
replications = 2
beta = 1.25
markov_q = 0.05
"""


def test_parse_config_round_trip():
    spec = parse_config(GOOD_CONFIG)
    assert spec.scenario == "demo"
    assert spec.policies == (PolicyKind.MAX_WEIGHT,
                             PolicyKind.NEAR_REALISTIC_FRESH_CSMA)
    assert spec.n_sources == 4
    assert spec.weights == "sqrt"
    assert spec.horizon == 500
    assert spec.base_seed == 99
    assert spec.replications == 2
    assert spec.beta == pytest.approx(1.25)
    assert spec.alpha is None  # falls back to the recommended formula
    assert spec.markov_q == pytest.approx(0.05)


def test_parse_config_leaves_defaults_to_the_spec():
    assert parse_config("policies = max_weight\nn_sources = 2") == \
        ExperimentSpec(scenario="custom", policies=(PolicyKind.MAX_WEIGHT,),
                       n_sources=2)


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    spec = parse_config(example)
    assert spec.scenario == "demo"
    assert spec.sweep_values == (1.05, 1.1, 1.5)


def test_parse_config_explicit_weights():
    spec = parse_config("policies = max_weight\nn_sources = 2\nweights = 1.5, 2.5")
    assert spec.weights == (1.5, 2.5)


def test_parse_config_unknown_key_is_an_error():
    # delta_scale is not a key: the idealized timers have no scale
    for line in ("turbo = on", "delta_scale = 0.01"):
        key = line.split()[0]
        with pytest.raises(ParameterError, match=f"unknown key '{key}'"):
            parse_config(f"policies = max_weight\nn_sources = 2\n{line}")


def test_parse_config_duplicate_key():
    with pytest.raises(ParameterError):
        parse_config("n_sources = 2\nn_sources = 3\npolicies = max_weight")


def test_parse_config_missing_required_keys():
    with pytest.raises(ParameterError):
        parse_config("n_sources = 2")
    with pytest.raises(ParameterError):
        parse_config("policies = max_weight")


def test_parse_config_bad_policy_name():
    with pytest.raises(ParameterError):
        parse_config("policies = quantum_csma\nn_sources = 2")


def test_parse_config_malformed_line():
    with pytest.raises(ParameterError):
        parse_config("policies max_weight")
