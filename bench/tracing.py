"""Self-time spans and call counters around aoisim's public functions.

The tracer replaces module functions and class methods with wrappers
while it is installed and restores the originals afterwards, so nothing
in the package changes.  A module-level function is rebound in every
aoisim module that imported it by name (``from .core import ...``), which
is where the caller looks it up.  A target that no longer exists is
recorded as absent instead of failing, so the traced run survives a
refactor that deletes it; its metrics then read 0.

A span's self time is its duration minus the time of the spans nested in
it.  Nested calls within one group count once (the outermost call).
Per-draw targets are counted only, never timed: timing a call that costs
well under a microsecond would mostly measure the timer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (group, owner, attribute, mode).  The owner is a module name under
# aoisim, or "module:Class" for a method.  Mode "span" times the call and
# "count" only counts it.
TARGETS = (
    ("core.rng", "core:RngStream", "uniform", "count"),
    ("core.log_rates", "core", "aoi_log_rates", "span"),
    ("core.log_rates", "core", "aoii_log_rates", "span"),
    ("core.discretize", "core", "discretize_log_timers", "span"),
    ("policies.timers", "policies:Policy", "timers", "span"),
    ("policies.timers", "policies", "fresh_csma_timers", "span"),
    ("policies.timers", "policies", "idealized_csma_timers", "span"),
    ("policies.decide", "policies:Policy", "decide", "span"),
    ("policies.decide", "policies", "max_weight_decide", "span"),
    ("policies.decide", "policies", "max_aoii_decide", "span"),
    ("policies.decide", "policies", "sample_from_probs", "span"),
    ("policies.construct", "policies:Policy", "__init__", "span"),
    ("engine.step", "engine", "step_idealized", "span"),
    ("engine.step", "engine", "step_near_realistic", "span"),
    ("engine.markov", "engine", "step_markov", "span"),
    ("engine.loop", "engine", "run", "span"),
    ("analysis.gamma0", "analysis", "upper_incomplete_gamma_zero", "span"),
    ("analysis.overhead_bound", "analysis", "overhead_upper_bound", "span"),
    ("analysis.overhead_bound", "analysis",
     "overhead_upper_bound_from_log_rate", "span"),
    ("analysis.win_distribution", "policies", "scheduling_probabilities", "span"),
    ("analysis.match_probability", "analysis",
     "max_weight_match_probability", "span"),
    ("analysis.match_probability", "analysis",
     "max_aoii_match_probability", "span"),
    ("analysis.drift_pair", "analysis", "lyapunov_drift_pair", "span"),
    ("analysis.distinct_timer_bound", "analysis", "distinct_timer_bound", "span"),
    ("analysis.distinct_timer_bound", "analysis", "timer_separation_term", "span"),
    ("experiments.aggregate", "experiments", "resolve_points", "span"),
    ("experiments.aggregate", "experiments", "run_replication", "span"),
    ("experiments.aggregate", "experiments", "run_experiment", "span"),
    ("experiments.csv", "experiments", "rows_to_csv", "span"),
)

CHECK_IDS = ("thm1", "lemma1", "lemma2", "thm3", "thm4", "thm5")


class Tracer:
    """Accumulates self time and outermost-call counts per group."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [group, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- accumulators -------------------------------------------------------

    def snapshot(self):
        return dict(self.self_s), dict(self.calls)

    def rollback(self, snap) -> None:
        """Forget everything recorded since snap (a failed operation)."""
        self_s, calls = snap
        self.self_s = defaultdict(float, self_s)
        self.calls = defaultdict(int, calls)
        self._stack.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, group: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not stack or stack[-1][0] != group
            frame = [group, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[group] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if outermost:
                    self.calls[group] += 1
        return wrapper

    def _count(self, group: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        modules = {name[len("aoisim."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("aoisim.") and mod is not None}
        for group, owner, attr, mode in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            holder = modules.get(mod_name)
            if holder is not None and cls_name:
                holder = getattr(holder, cls_name, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.absent.append(f"{owner}.{attr}")
                continue
            make = self._span if mode == "span" else self._count
            wrapped = make(group, original)
            if cls_name:
                self._rebind(holder, attr, original, wrapped)
                continue
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._rebind(mod, attr, original, wrapped)
        checks = modules.get("checks")
        registry = getattr(checks, "CHECKS", None) if checks else None
        for check_id in CHECK_IDS:
            if registry is None or check_id not in registry:
                self.absent.append(f"checks.CHECKS[{check_id!r}]")
                continue
            original = registry[check_id]
            registry[check_id] = self._span(f"checks.{check_id}", original)
            self._restore.append((registry, check_id, original))

    def _rebind(self, holder, attr, original, wrapped) -> None:
        setattr(holder, attr, wrapped)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._restore.clear()
