"""The benchmark's workloads, built and run on a cheap subset.

bench/workloads.py builds its operations from the library:
experiments.preset(seed=, horizon=, n_values=), resolve_points,
run_replication (which it wraps to keep each SimulationResult),
run_experiment and rows_to_csv, checks.CHECKS and the samples defaults
of its checks, the Gamma(0, x) kernel and
overhead_upper_bound(..., minislots=True).  This test builds all four
workloads and runs and checks a few operations of each, none of them a
known fault, so a library change that drops or renames something the
benchmark calls fails here and not first in a benchmark run.
"""

from pathlib import Path

from aoisim import experiments

BENCH = Path(__file__).parents[1] / "bench"


def _cheap_ops(name, ops):
    """Every operation at the smallest N of the N sweeps, the first of
    the minislot sweeps, verify thm1, and one each of the Gamma(0, x)
    and overhead-bound grids."""
    if name in ("aoi_sweep", "aoii_markov"):
        # labels read scenario/n_sources=N/policy, sorted by N
        smallest = ops[0].label.split("/")[1]
        return [op for op in ops if op.label.split("/")[1] == smallest]
    if name == "minislot_collisions":
        return ops[:1]
    return [next(op for op in ops if op.label == "verify/thm1"),
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
            workloads.digest(outcome.value)
            outcomes.append(outcome)
        closed = workload.close_round(outcomes)
        if name != "verify_checks":
            assert closed.startswith(b"scenario,policy,")
            assert closed.count(b"\n") == 1 + len(ops)
