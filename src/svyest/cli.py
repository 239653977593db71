"""Command-line front end: generate populations, run scenarios, pivot reports."""
from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from pathlib import Path

from .errors import SvyestError
from .montecarlo import load_scenario, read_report, sweep_dnoise, write_report
from .population import DgpModel, assign_strata_by_quantile, generate_auxiliary, generate_survey_variable, save_population

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="svyest", description="Design-based survey estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a population and write it as CSV")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--units", type=int, required=True, help="population size N")
    gen.add_argument("--columns", type=int, required=True, help="auxiliary column count p")
    gen.add_argument("--rho", type=float, default=0.0, help="lag-decay column correlation")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--loc", type=float, default=180.0, help="column location")
    gen.add_argument("--scale", type=float, default=40.0, help="column scale")
    gen.add_argument("--model", choices=("Y1", "Y2", "Y3", "Y4"), help="attach a survey variable")
    gen.add_argument("--noise-scale", type=float, help="override the model noise setting")
    gen.add_argument("--model-seed", type=int, default=0, help="noise seed")
    gen.add_argument("--strata", type=int, help="quantile-stratify into this many strata")
    gen.add_argument("--strata-column", type=int, default=0, help="column driving stratification")
    gen.set_defaults(handler=_cmd_generate)

    sim = sub.add_parser("simulate", help="run a scenario sweep and write the report")
    sim.add_argument("--scenario", required=True, help="scenario JSON path")
    sim.add_argument("--out", required=True, help="report CSV path")
    sim.add_argument("--seed", type=int, help="override the scenario master seed")
    sim.add_argument("--threads", type=int, default=0, help="replicate parallelism (0 = all cores)")
    sim.set_defaults(handler=_cmd_simulate)

    rep = sub.add_parser("report", help="pivot a report into a plot-ready table")
    rep.add_argument("--in", dest="infile", required=True, help="report CSV path")
    rep.add_argument("--out", required=True, help="pivot table output path")
    rep.add_argument("--pivot", choices=("by_dnoise", "by_method"), default="by_dnoise")
    rep.set_defaults(handler=_cmd_report)
    return parser


def _cmd_generate(args) -> int:
    pop = generate_auxiliary(
        args.units, args.columns, args.rho, args.seed, loc=args.loc, scale=args.scale
    )
    if args.strata:
        pop = assign_strata_by_quantile(pop, args.strata_column, args.strata)
    if args.model:
        model = DgpModel(variant=args.model, noise_scale=args.noise_scale, seed=args.model_seed)
        pop = generate_survey_variable(pop, model)
    save_population(pop, args.out)
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, master_seed=args.seed)
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    report = sweep_dnoise(scenario, threads=threads, log_estimates=False)
    write_report(report, args.out)
    for (label, level), messages in sorted(report.failures.items()):
        print(
            f"svyest: {label!r} at d_noise {level} failed {len(messages)} of "
            f"{scenario.replicates} replicates, first: {messages[0]}",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args) -> int:
    report = read_report(args.infile)
    methods = sorted({row.method for row in report.rows})
    levels = sorted({row.d_noise for row in report.rows})
    re_of = {(row.method, row.d_noise): row.re_percent for row in report.rows}
    path = Path(args.out)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if args.pivot == "by_dnoise":
            writer.writerow(["method"] + [f"re_{level}" for level in levels])
            for method in methods:
                writer.writerow(
                    [method]
                    + [_format_re(re_of.get((method, level))) for level in levels]
                )
        else:
            writer.writerow(["d_noise"] + [f"re_{method}" for method in methods])
            for level in levels:
                writer.writerow(
                    [level]
                    + [_format_re(re_of.get((method, level))) for method in methods]
                )
    os.replace(tmp, path)
    return 0


def _format_re(value) -> str:
    return "" if value is None else f"{value:.17g}"


def _failing_module(exc: BaseException) -> str:
    module = "svyest"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("svyest"):
            module = name
    return module


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"svyest: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        _validate_paths(args)
    except _UsageError as exc:
        print(f"svyest: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.handler(args)
    except (SvyestError, OSError) as exc:
        print(f"svyest: error in {_failing_module(exc)}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def _validate_paths(args) -> None:
    # Inputs are checked before any work begins; outputs land atomically.
    for attr, label in (("scenario", "scenario file"), ("infile", "report file")):
        value = getattr(args, attr, None)
        if value is not None and not Path(value).exists():
            raise _UsageError(f"{label} not found: {value}")
    out = getattr(args, "out", None)
    if out is not None and not Path(out).parent.exists():
        raise _UsageError(f"output directory not found: {Path(out).parent}")


if __name__ == "__main__":
    sys.exit(main())
