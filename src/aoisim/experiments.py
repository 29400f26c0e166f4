"""Experiment harness: scenario presets, parameter sweeps, replication
aggregation, and deterministic CSV emission.

A preset encodes the benchmark's parameter formulas, not fixed values:
shrinking the network-size range keeps every derived parameter correct.
Sweep rows are keyed and sorted before writing, so reruns with the same
seed are byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import overhead_upper_bound
from .core import (
    DEFAULT_SEED,
    BackoffParams,
    NetworkConfig,
    ParameterError,
    recommended_defaults,
    whole_number,
)
from .engine import check_run_inputs, run
from .policies import RULES, PolicyKind

DESK_SCALE_N = (2, 5, 10, 20, 30)
DEFAULT_HORIZON = 100_000

# Each sweepable parameter and the type its swept value is converted to.
_SWEEP_TYPES = {"n_sources": int, "alpha": float, "beta": float,
                "b_offset": int}
_WEIGHT_NAMES = ("ones", "sqrt")

CSV_COLUMNS = (
    "scenario", "policy", "n_sources", "sweep_param", "sweep_value",
    "normalized_weighted_avg_aoi", "aoi_stderr",
    "normalized_avg_aoii", "aoii_stderr",
    "collision_rate", "avg_overhead_minislots", "overhead_bound_minislots",
    "seed",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment table."""

    scenario: str
    policies: tuple[PolicyKind, ...]
    n_sources: int
    weights: "str | tuple[float, ...]" = "ones"
    horizon: int = DEFAULT_HORIZON
    horizon_unit: str = "deliveries"
    base_seed: int = DEFAULT_SEED
    replications: int = 1
    markov_q: float | None = None
    # None fields fall back to the benchmark formulas for the point's N:
    # the AoII variant's when markov_q is set, the AoI formulas otherwise.
    alpha: float | None = None
    beta: float | None = None
    b_offset: int | None = None
    minislots_per_update: int = 10_000
    log_base: float = 10.0
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None
    output_path: str | None = None

    def __post_init__(self):
        if not self.policies:
            raise ParameterError("at least one policy is required")
        if (self.sweep_param is None) != (self.sweep_values is None):
            raise ParameterError("sweep_param and sweep_values go together")
        if self.sweep_param is not None:
            if self.sweep_param not in _SWEEP_TYPES:
                raise ParameterError(f"cannot sweep {self.sweep_param!r}; "
                                     f"choose one of {tuple(_SWEEP_TYPES)}")
            if len(self.sweep_values) == 0:
                raise ParameterError("sweep_values is empty")
            if _SWEEP_TYPES[self.sweep_param] is int:
                for v in self.sweep_values:
                    whole_number(f"{self.sweep_param} sweep value", v)
        # whole floats are stored as ints
        for name, least in (("n_sources", None), ("horizon", 1),
                            ("replications", 1)):
            object.__setattr__(self, name,
                               whole_number(name, getattr(self, name), least))
        for kind in self.policies:
            check_run_inputs(kind, self.horizon_unit, self.markov_q,
                             self.n_sources)
        if isinstance(self.weights, str) and self.weights not in _WEIGHT_NAMES:
            raise ParameterError(f"unknown weights {self.weights!r}; choose "
                                 f"one of {_WEIGHT_NAMES} or a tuple")


@dataclass(frozen=True)
class SweepPoint:
    sweep_value: float | None
    config: NetworkConfig
    params: BackoffParams


def _build_weights(spec_weights, n: int) -> tuple[float, ...]:
    if spec_weights == "ones":
        return tuple(1.0 for _ in range(n))
    if spec_weights == "sqrt":
        return tuple(math.sqrt(k) for k in range(1, n + 1))
    return tuple(float(w) for w in spec_weights)


def resolve_points(spec: ExperimentSpec) -> list[SweepPoint]:
    """Materialize (config, params) for each sweep point, sorted by the
    swept value; a sweep-less spec yields a single point.

    The swept value overrides the spec's value, which overrides the
    recommended formulas for the point's N: the AoII variant's when the
    spec has Markov sources (markov_q), since they drive mismatch-age
    contention, and the AoI formulas otherwise.
    """
    values = [None] if spec.sweep_param is None else sorted(spec.sweep_values)
    points = []
    for value in values:
        fixed = {"n_sources": spec.n_sources, "alpha": spec.alpha,
                 "beta": spec.beta, "b_offset": spec.b_offset}
        if spec.sweep_param is not None:
            fixed[spec.sweep_param] = _SWEEP_TYPES[spec.sweep_param](value)
        n = fixed.pop("n_sources")
        weights = _build_weights(spec.weights, n)
        base = recommended_defaults(n, weights, aoii=spec.markov_q is not None,
                                    log_base=spec.log_base)
        params = replace(base, minislots_per_update=spec.minislots_per_update,
                         **{k: v for k, v in fixed.items() if v is not None})
        config = NetworkConfig(n_sources=n, weights=weights,
                               horizon_frames=spec.horizon,
                               seed=spec.base_seed)
        points.append(SweepPoint(sweep_value=value, config=config, params=params))
    return points


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_AOI_POLICIES = (PolicyKind.MAX_WEIGHT, PolicyKind.STATIONARY_RANDOMIZED,
                 PolicyKind.IDEALIZED_FRESH_CSMA,
                 PolicyKind.NEAR_REALISTIC_FRESH_CSMA)
_AOII_POLICIES = (PolicyKind.MAX_WEIGHT, PolicyKind.IDEALIZED_FRESH_CSMA_AOII,
                  PolicyKind.NEAR_REALISTIC_FRESH_CSMA_AOII)

# The ExperimentSpec fields each preset sets beyond the defaults.  An
# entry without sweep_values sweeps N over the preset's n_values.
_FIG6 = dict(policies=(PolicyKind.NEAR_REALISTIC_FRESH_CSMA,),
             horizon_unit="frames", sweep_param="beta",
             sweep_values=(1.01, 1.05, 1.1, 1.2, 1.5, 2.0))
_FIG7 = dict(policies=(PolicyKind.NEAR_REALISTIC_FRESH_CSMA,),
             horizon_unit="frames", sweep_param="b_offset",
             sweep_values=(0, 5, 10, 50, 100, 250, 260, 300))
_FIG10 = dict(policies=_AOII_POLICIES, markov_q=0.05, sweep_param="n_sources")
_PRESETS = {
    "fig3_symmetric": dict(policies=_AOI_POLICIES, sweep_param="n_sources"),
    "fig4_sqrt_weights": dict(policies=_AOI_POLICIES, weights="sqrt",
                              sweep_param="n_sources"),
    "fig5_alpha_sweep": dict(
        policies=(PolicyKind.MAX_WEIGHT, PolicyKind.IDEALIZED_FRESH_CSMA,
                  PolicyKind.NEAR_REALISTIC_FRESH_CSMA),
        sweep_param="alpha", sweep_values=(1.01, 1.05, 1.1, 1.5, 2.0, 5.0, 9.0)),
    "fig6_beta_collisions": _FIG6,
    "fig7_B_collisions": _FIG7,
    # Figs. 8, 9 and 11 plot other columns of the same simulations.
    "fig8_beta_overhead": _FIG6,
    "fig9_B_overhead": _FIG7,
    "fig10_aoii": _FIG10,
    "fig11_aoii_aoi": _FIG10,
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, *, seed: int = DEFAULT_SEED, horizon: int | None = None,
           replications: int = 1, n_values: Sequence[int] | None = None,
           log_base: float = 10.0) -> ExperimentSpec:
    """Desk-scale experiment spec for a named benchmark scenario.

    Network-size sweeps default to DESK_SCALE_N; the parameter formulas
    are evaluated per point, so any size range is faithful.  Scenarios
    that measure collision or overhead rates run a fixed number of
    frames (a non-delivering configuration would never finish a
    delivery-based horizon); the AoI/AoII scenarios run to a fixed
    number of delivered updates.  n_values sets the sizes of an N sweep;
    a preset that sweeps another parameter runs at N = 10 and refuses it.
    """
    if name not in _PRESETS:
        raise ParameterError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    if n_values is not None and "sweep_values" in _PRESETS[name]:
        raise ParameterError(f"{name} sweeps {_PRESETS[name]['sweep_param']} "
                             "at N = 10; n_values applies only to N sweeps")
    n_sweep = tuple(float(v) for v in (DESK_SCALE_N if n_values is None
                                       else n_values))
    return ExperimentSpec(scenario=name, n_sources=10, base_seed=seed,
                          horizon=DEFAULT_HORIZON if horizon is None else horizon,
                          replications=replications, log_base=log_base,
                          **{"sweep_values": n_sweep, **_PRESETS[name]})


# ---------------------------------------------------------------------------
# Running and aggregating
# ---------------------------------------------------------------------------

def run_replication(spec: ExperimentSpec, point: SweepPoint, kind: PolicyKind,
                    rep: int, trace=None):
    """One simulation, its streams under prefix (rep,) of base_seed, so
    results never shift when other policies or replications are added."""
    return run(point.config, kind, point.params, prefix=(rep,),
               markov_q=spec.markov_q, horizon_unit=spec.horizon_unit,
               trace=trace)


def _mean_stderr(values: list[float]) -> tuple[float, float | None]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Execute every (sweep point, policy, replication) and aggregate.

    Returns one row per (sweep point, policy), sorted by sweep value
    with policies in listed order.  Rows carry replication means, their
    standard errors (blank for a single replication), and the
    closed-form overhead bound evaluated at the simulated average ages
    for minislot-model runs under frame-age contention (blank under
    AoII contention, whose rates the bound does not describe).
    """
    rows = []
    for point in resolve_points(spec):
        for kind in spec.policies:
            aois, aoiis, collisions, overheads, bounds = [], [], [], [], []
            for rep in range(spec.replications):
                result = run_replication(spec, point, kind, rep)
                aois.append(result.normalized_weighted_avg_aoi)
                if result.normalized_avg_aoii is not None:
                    aoiis.append(result.normalized_avg_aoii)
                collisions.append(result.collision_rate)
                overheads.append(result.avg_overhead_minislots)
                if RULES[kind].discrete and RULES[kind].signal == "frame_age":
                    avg_ages = np.asarray(result.per_source_avg_aoi)
                    bounds.append(overhead_upper_bound(
                        avg_ages, point.config.weights_array, point.params,
                        minislots=True))
            aoi_mean, aoi_se = _mean_stderr(aois)
            aoii_mean, aoii_se = _mean_stderr(aoiis) if aoiis else (None, None)
            rows.append({
                "scenario": spec.scenario,
                "policy": kind.value,
                "n_sources": point.config.n_sources,
                "sweep_param": spec.sweep_param or "",
                "sweep_value": point.sweep_value,
                "normalized_weighted_avg_aoi": aoi_mean,
                "aoi_stderr": aoi_se,
                "normalized_avg_aoii": aoii_mean,
                "aoii_stderr": aoii_se,
                "collision_rate": float(np.mean(collisions)),
                "avg_overhead_minislots": float(np.mean(overheads)),
                "overhead_bound_minislots": (float(np.mean(bounds))
                                             if bounds else None),
                "seed": spec.base_seed,
            })
    return rows


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: list[dict], path: "str | Path") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rows_to_csv(rows), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Flat config files
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _policies(text: str) -> tuple[PolicyKind, ...]:
    return tuple(PolicyKind(p.strip()) for p in text.split(","))


def _weights(text: str) -> "str | tuple[float, ...]":
    return text if text in _WEIGHT_NAMES else _floats(text)


# Config key -> (ExperimentSpec field, value parser).  An absent key is
# left to the field's default.
_CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "policies": ("policies", _policies),
    "n_sources": ("n_sources", int),
    "weights": ("weights", _weights),
    "horizon": ("horizon", int),
    "horizon_unit": ("horizon_unit", str),
    "seed": ("base_seed", int),
    "replications": ("replications", int),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "b_offset": ("b_offset", int),
    "minislots_per_update": ("minislots_per_update", int),
    "markov_q": ("markov_q", float),
    "sweep_param": ("sweep_param", str),
    "sweep_values": ("sweep_values", _floats),
    "output": ("output_path", str),
}


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat `key = value` experiment file.

    Lines starting with '#' are comments; unknown keys are errors, not
    warnings, so typos cannot silently change an experiment.
    """
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        if field in fields:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            fields[field] = parse(value.strip())
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: {key}: {exc}") from None

    if "policies" not in fields:
        raise ParameterError("config needs a 'policies' key")
    if "n_sources" not in fields:
        raise ParameterError("config needs an 'n_sources' key")
    return ExperimentSpec(**{"scenario": "custom", **fields})
