"""Deterministic packet-level simulator and analytical toolkit for
age-of-information scheduling in single-hop wireless networks."""

from .analysis import (
    distinct_timer_bound,
    lyapunov_drift_pair,
    match_probability,
    overhead_upper_bound,
    timer_separation_term,
    upper_incomplete_gamma_zero,
)
from .checks import CHECKS, CheckResult
from .core import (
    BackoffParams,
    NetworkConfig,
    ParameterError,
    RngStream,
    drift_alpha_threshold,
    match_alpha_threshold,
    recommended_defaults,
)
from .engine import SimulationResult, run
from .experiments import (
    ExperimentSpec,
    parse_config,
    preset,
    run_experiment,
    write_csv,
)
from .policies import (
    PolicyKind,
    scheduling_probabilities,
    stationary_randomized_probs,
)

__version__ = "0.1.0"

__all__ = [
    "BackoffParams", "CHECKS", "CheckResult", "ExperimentSpec",
    "NetworkConfig", "ParameterError", "PolicyKind", "RngStream",
    "SimulationResult", "distinct_timer_bound", "drift_alpha_threshold",
    "lyapunov_drift_pair", "match_alpha_threshold", "match_probability",
    "overhead_upper_bound", "parse_config", "preset", "recommended_defaults",
    "run", "run_experiment", "scheduling_probabilities",
    "stationary_randomized_probs", "timer_separation_term",
    "upper_incomplete_gamma_zero", "write_csv",
]
