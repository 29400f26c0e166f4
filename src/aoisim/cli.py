"""Command-line entry points.

Subcommands: `simulate` runs an experiment from a flat config file
(its `sweep_param` and `sweep_values` keys sweep one parameter),
`preset` reproduces a named benchmark scenario at desk scale, and
`verify` runs a named analytical check.  Exit codes: 0 success / all
checks pass, 1 failed check or runtime error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .checks import CHECKS
from .core import DEFAULT_SEED, ParameterError
from .experiments import (
    PRESET_NAMES,
    ExperimentSpec,
    parse_config,
    preset,
    resolve_points,
    run_experiment,
    run_replication,
    write_csv,
)

OUTPUT_DIR_ENV = "AOISIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse type for a comma list of integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def _output_path(spec: ExperimentSpec, override: str | None) -> Path:
    if override:
        return Path(override)
    if spec.output_path:
        return Path(spec.output_path)
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / f"{spec.scenario}.csv"


def _overrides(args) -> dict:
    """The --seed, --horizon and --replications given, as spec fields; a
    flag left out leaves the config's or the preset's value."""
    given = {"base_seed": args.seed, "horizon": args.horizon,
             "replications": args.replications}
    return {k: v for k, v in given.items() if v is not None}


def _emit(spec: ExperimentSpec, output: str | None) -> int:
    rows = run_experiment(spec)
    path = write_csv(rows, _output_path(spec, output))
    print(f"{spec.scenario}: wrote {len(rows)} rows to {path}")
    return EXIT_OK


def _write_trace(spec: ExperimentSpec, trace_path: str) -> None:
    if len(spec.policies) != 1 or spec.sweep_param is not None:
        raise ParameterError("--trace needs a single policy and no sweep")
    point = resolve_points(spec)[0]
    Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        run_replication(spec, point, spec.policies[0], 0, trace=fh)
    print(f"trace written to {trace_path}")


def cmd_simulate(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read --config: {exc}") from None
    spec = replace(parse_config(text), **_overrides(args))
    if args.trace:
        _write_trace(spec, args.trace)
    return _emit(spec, args.output)


def cmd_preset(args) -> int:
    spec = preset(args.name, n_values=args.n_values, log_base=args.log_base)
    return _emit(replace(spec, **_overrides(args)), args.output)


def cmd_verify(args) -> int:
    check = CHECKS[args.check]
    kwargs = {"seed": args.seed}
    accepted = inspect.signature(check).parameters
    for name in ("trials", "samples"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            print(f"usage error: verify {args.check} does not take --{name}",
                  file=sys.stderr)
            return EXIT_USAGE
        kwargs[name] = value
    result = check(**kwargs)
    print(result.summary())
    return EXIT_OK if result.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisim",
        description="Age-of-information scheduling simulator and bound checker")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options simulate and preset share, each declared once.
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--seed", type=int)
    run_opts.add_argument("--horizon", type=int)
    run_opts.add_argument("--replications", type=int)
    run_opts.add_argument("--output", help="CSV path (default from config/env)")

    p_sim = sub.add_parser("simulate", parents=[run_opts],
                           help="run an experiment config")
    p_sim.add_argument("--config", required=True, help="flat key = value file")
    p_sim.add_argument("--trace", help="write a per-frame trace to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_pre = sub.add_parser("preset", parents=[run_opts],
                           help="reproduce a benchmark scenario")
    p_pre.add_argument("name", choices=PRESET_NAMES)
    p_pre.add_argument("--n-values", type=_int_list,
                       help="comma list of network sizes (N sweeps only)")
    p_pre.add_argument("--natural-log", dest="log_base", action="store_const",
                       const=math.e, default=10.0,
                       help="use natural logs in the parameter formulas "
                            "(base-10 is the default)")
    p_pre.set_defaults(func=cmd_preset)

    p_ver = sub.add_parser("verify", help="run an analytical check")
    p_ver.add_argument("check", choices=sorted(CHECKS))
    p_ver.add_argument("--trials", type=int, help="random states to test")
    p_ver.add_argument("--samples", type=int, help="Monte Carlo draws per state")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every command reports its errors here.  Some bad values surface
    # only once a run or check starts, e.g. a negative --seed or a
    # --trials below 1; an output file that cannot be written is a
    # runtime error.
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
