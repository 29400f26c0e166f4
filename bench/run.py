"""aoisim benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload aoi_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --fingerprints check   # or: write

The run imports aoisim from ``src/`` next to this directory, builds the
workload from the seed, then repeats whole rounds of its operations for
the given number of seconds and checks every output against the
independent oracles.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced rounds and reports per-module self
times, counts and the tracing overhead.  A failed check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CHECK_IDS, Tracer
from workloads import WORKLOADS, build, digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
FINGERPRINT_SEED = 1
SETUP_REPEATS = 5


def import_aoisim():
    """Import aoisim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import aoisim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import aoisim from {SRC}: {exc}")
    origin = Path(aoisim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported aoisim from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

class RoundStats:
    def __init__(self):
        self.wall_s = 0.0            # operations and the round's CSV, no checking
        self.attempted = 0
        self.failed = 0
        self.frames = 0
        self.deliveries = 0
        self.frame_time_s = 0.0      # successful operations that count frames
        self.sim_frames = 0          # frames of engine simulations only
        self.sim_deliveries = 0
        self.sim_ops = 0
        self.fingerprint = ""


def run_round(workload, problems: list[str], fault_notes: dict,
              tracer=None) -> RoundStats:
    """Run every operation once and check its output.

    Only the operations themselves and closing the round are timed; the
    oracles and digests run between the timed regions.
    """
    stats = RoundStats()
    outcomes = []
    h = hashlib.sha256()
    clock = time.perf_counter
    for op in workload.ops:
        snap = tracer.snapshot() if tracer is not None else None
        t0 = clock()
        try:
            outcome = op.call()
        except Exception as exc:  # an operation that fails is counted, not fatal
            elapsed = clock() - t0
            errors = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = clock() - t0
            errors = op.check(outcome.value)
        stats.wall_s += elapsed
        stats.attempted += 1
        if errors:
            stats.failed += 1
            if tracer is not None:
                tracer.rollback(snap)
            if op.fault is None:
                problems.extend(f"{op.label}: {i}" for i in errors)
            else:
                fault_notes.setdefault(op.fault, f"{op.label}: {errors[0]}")
            h.update(f"{op.label}:failed".encode())
            continue
        outcomes.append(outcome)
        h.update(digest(outcome.value).encode())
        if outcome.frames:
            stats.frames += outcome.frames
            stats.deliveries += outcome.deliveries
            stats.frame_time_s += elapsed
        if outcome.simulated:
            stats.sim_frames += outcome.frames
            stats.sim_deliveries += outcome.deliveries
            stats.sim_ops += 1
    t0 = clock()
    csv_bytes = workload.close_round(outcomes)
    stats.wall_s += clock() - t0
    h.update(csv_bytes)
    stats.fingerprint = h.hexdigest()
    return stats


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end_metrics(rounds: list[RoundStats], setup_s: float) -> dict:
    """Time per round and rates over the whole run.

    Round times are not heavy-tailed here; the spread between runs comes
    from the host's speed drifting over tens of seconds, and using every
    round's time spreads less between runs than the median round does.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy_s = sum(r.frame_time_s for r in rounds)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.fmean(r.wall_s for r in rounds), "s"),
        "frames_per_s": _metric(_rate(sum(r.frames for r in rounds), busy_s),
                                "frames/s"),
        "deliveries_per_s": _metric(
            _rate(sum(r.deliveries for r in rounds), busy_s), "deliveries/s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced: list[RoundStats],
                      untraced: list[RoundStats]) -> dict:
    n_rounds = len(traced)
    frames = sum(r.sim_frames for r in traced)
    deliveries = sum(r.sim_deliveries for r in traced)
    runs = sum(r.sim_ops for r in traced)
    self_s, calls = tracer.self_s, tracer.calls

    def per(group: str, count: float, scale: float = 1e6) -> float:
        return self_s.get(group, 0.0) * scale / count if count else 0.0

    def per_call(group: str) -> float:
        return per(group, calls.get(group, 0))

    m = {
        "core.rng.scalar_calls_per_frame": _metric(
            calls.get("core.rng", 0) / frames if frames else 0.0, "calls/frame"),
        "core.log_rates.us_per_frame": _metric(per("core.log_rates", frames), "us/frame"),
        "core.discretize.us_per_frame": _metric(per("core.discretize", frames), "us/frame"),
        "policies.timers.us_per_frame": _metric(per("policies.timers", frames), "us/frame"),
        "policies.decide.us_per_frame": _metric(per("policies.decide", frames), "us/frame"),
        "policies.construct.us_per_run": _metric(per("policies.construct", runs), "us/run"),
        "engine.step.us_per_frame": _metric(per("engine.step", frames), "us/frame"),
        "engine.markov.us_per_frame": _metric(per("engine.markov", frames), "us/frame"),
        "engine.loop.us_per_frame": _metric(per("engine.loop", frames), "us/frame"),
        "engine.delivery_ratio": _metric(
            deliveries / frames if frames else 0.0, "deliveries/frame"),
        "analysis.gamma0.calls_per_s": _metric(
            _rate(calls.get("analysis.gamma0", 0), self_s.get("analysis.gamma0", 0.0)),
            "calls/s"),
    }
    for name in ("overhead_bound", "win_distribution", "match_probability",
                 "drift_pair", "distinct_timer_bound"):
        m[f"analysis.{name}.us_per_call"] = _metric(per_call(f"analysis.{name}"), "us")
    for cid in CHECK_IDS:
        m[f"checks.{cid}.s"] = _metric(per(f"checks.{cid}", n_rounds, 1.0), "s")
    m["checks.self_s"] = _metric(sum(per(f"checks.{cid}", n_rounds, 1.0)
                                     for cid in CHECK_IDS), "s")
    m["experiments.aggregate.s"] = _metric(per("experiments.aggregate", n_rounds, 1.0), "s")
    m["experiments.csv.s"] = _metric(per("experiments.csv", n_rounds, 1.0), "s")
    m["trace.overhead_s"] = _metric(
        statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in untraced), "s")
    return m


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import aoisim and build
    the workload (sweep-point resolution included), then exit.

    The wait has no timeout: with one, subprocess polls every 50 ms and
    the measured times snap to that grid.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def benchmark(args) -> int:
    import_aoisim()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else 0.0
    workload = build(args.workload, args.seed)

    problems: list[str] = []
    fault_notes: dict[str, str] = {}
    untraced: list[RoundStats] = []
    traced: list[RoundStats] = []
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.install()
            try:
                traced.append(run_round(workload, problems, fault_notes, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(run_round(workload, problems, fault_notes))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    rounds = untraced + traced
    fingerprints = {r.fingerprint for r in rounds}
    if len(fingerprints) != 1:
        problems.append(f"rounds of the same inputs gave {len(fingerprints)} "
                        "different fingerprints (non-deterministic results)")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if tracer is not None:
        metrics = per_layer_metrics(tracer, traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setup_s)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced rounds of {len(workload.ops)} operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    for fault, example in fault_notes.items():
        print(f"  known fault: {fault}; e.g. {example}")
    if tracer is not None and tracer.absent:
        print(f"  absent trace targets (their metrics read 0): "
              f"{', '.join(tracer.absent)}")
    print(f"  round wall_s: {' '.join(f'{r.wall_s:.3f}' for r in untraced)}")
    print(f"  fingerprint {rounds[0].fingerprint}")
    for p in problems[:20]:
        print(f"  CHECK FAILED {p}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failed checks")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def setup_probe(args) -> int:
    import_aoisim()
    build(args.workload, args.seed)
    return 0


def fingerprints(args) -> int:
    """Write or check one round's fingerprint per workload at a fixed seed.

    A change meant to alter speed only should leave every fingerprint
    unchanged; one that corrects the method changes them on purpose.
    """
    import_aoisim()
    current = {}
    for name in WORKLOADS:
        stats = run_round(build(name, FINGERPRINT_SEED), [], {})
        current[name] = stats.fingerprint
    if args.fingerprints == "write":
        FINGERPRINTS.write_text(json.dumps(
            {"seed": FINGERPRINT_SEED, "workloads": current}, indent=2) + "\n")
        print(f"wrote {FINGERPRINTS}")
        return 0
    stored = json.loads(FINGERPRINTS.read_text())["workloads"]
    same = True
    for name in WORKLOADS:
        verdict = "identical" if stored.get(name) == current[name] else "CHANGED"
        same &= verdict == "identical"
        print(f"{name}: {verdict} ({current[name]})")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--fingerprints", choices=("write", "check"))
    args = parser.parse_args(argv)
    if args.fingerprints:
        return fingerprints(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        return setup_probe(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
