"""The benchmark's workloads, built and run on a cheap subset.

bench/workloads.py builds its operations from the library:
experiments.preset(seed=, horizon=, n_values=), resolve_points,
run_replication (which it wraps to keep each SimulationResult),
run_experiment and rows_to_csv, checks.CHECKS with the samples default
of each sampled check (read through inspect.signature) and its
CheckResult.trials, the Gamma(0, x) kernel and
overhead_upper_bound(..., minislots=True).  This test builds all four
workloads and runs and checks a few operations of each, none of them a
known fault, so a library change that drops or renames something the
benchmark calls fails here and not first in a benchmark run.
"""

from pathlib import Path

from aoisim import experiments

BENCH = Path(__file__).parents[1] / "bench"


# frames of one call of each sampled check: trials x default samples
SAMPLED_FRAMES = {"verify/lemma1": 20 * 100_000, "verify/thm3": 81 * 100_000,
                  "verify/thm4": 10 * 100_000}


def _cheap_ops(name, ops):
    """Every operation at the smallest N of the N sweeps, the first of
    the minislot sweeps, verify thm1 and the three sampled checks, and
    one each of the Gamma(0, x) and overhead-bound grids."""
    if name in ("aoi_sweep", "aoii_markov"):
        # labels read scenario/n_sources=N/policy, sorted by N
        smallest = ops[0].label.split("/")[1]
        return [op for op in ops if op.label.split("/")[1] == smallest]
    if name == "minislot_collisions":
        return ops[:1]
    checks = ("verify/thm1", *SAMPLED_FRAMES)
    return [op for op in ops if op.label in checks] + [
        next(op for op in ops if op.label.startswith("gamma0/")),
        next(op for op in ops if op.label.startswith("overhead_bound/")
             and op.fault is None)]


def test_bench_workloads_build_and_pass_their_oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # Each simulation workload wraps run_replication for the life of the
    # process; monkeypatch puts the library's own back afterwards.
    monkeypatch.setattr(experiments, "run_replication",
                        experiments.run_replication)
    import workloads

    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1)
        ops = _cheap_ops(name, workload.ops)
        assert ops and all(op.fault is None for op in ops)
        outcomes = []
        for op in ops:
            outcome = op.call()
            assert op.check(outcome.value) == [], op.label
            if op.label in SAMPLED_FRAMES:
                # frames_per_s counts trials x samples of each check
                assert outcome.frames == SAMPLED_FRAMES[op.label], op.label
            workloads.digest(outcome.value)
            outcomes.append(outcome)
        closed = workload.close_round(outcomes)
        if name != "verify_checks":
            assert closed.startswith(b"scenario,policy,")
            assert closed.count(b"\n") == 1 + len(ops)
