"""Command-line front end.

Subcommands expose the pipeline stages: `evalue` for reports from a
published estimate, `convert` for bare measure normalization, `curve`
for the two-timepoint trade-off, `simulate` for the built-in generating
process, and `analyze` for cohort CSV files.  Machine-readable output
goes to stdout (or --out); diagnostics and warnings go to stderr.  Exit
codes: 0 success, 2 invalid input, 3 estimation failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings
from typing import Optional

from . import __version__, report
from .errors import EstimationError
from .evalue import (
    EffectEstimate,
    build_report,
    check_curve_limit,
    check_curve_points,
    normalize_estimate,
    tradeoff_curve,
)

_SEED_ENV = "EVTV_SEED"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `evtv` argument parser, built once per process and shared by
    every `main` call; callers must not mutate it.

    Sharing is safe because argparse keeps no state between parses: each
    `parse_args` fills a new namespace, `--param` appends to a copy of its
    `[]` default, and usage, help and version text go to the `sys.stdout`
    or `sys.stderr` of the moment they are printed."""
    parser = argparse.ArgumentParser(
        prog="evtv",
        description="E-value sensitivity analysis for treatments at multiple time points",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--measure", required=True, choices=["rr", "or", "hr"],
                       help="scale of the estimate")
        p.add_argument("--value", required=True, type=float, help="point estimate")
        p.add_argument("--lo", type=float, help="lower confidence limit")
        p.add_argument("--hi", type=float, help="upper confidence limit")
        p.add_argument("--rare", action="store_true",
                       help="outcome is rare (below roughly 15 percent prevalence)")

    p = sub.add_parser("evalue", help="E-value report for a published estimate")
    add_measure_flags(p)
    p.add_argument("--timepoints", required=True, type=int, help="number of treatment time points")
    p.add_argument("--curve", type=int, metavar="N",
                   help="include an N-point trade-off curve (two time points only)")
    p.add_argument("--human", action="store_true",
                   help="print a two-decimal summary instead of JSON")
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    p = sub.add_parser("convert", help="print an estimate normalized to the risk-ratio scale")
    add_measure_flags(p)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("curve", help="two-timepoint confounding trade-off curve")
    p.add_argument("--rr", required=True, type=float, help="observed risk ratio")
    p.add_argument("--limit", type=float,
                   help="target this confidence limit instead of the point estimate")
    p.add_argument("--points", type=int, default=200, help="grid size (default 200)")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("simulate", help="run the built-in generating process end to end")
    p.add_argument("--n", type=int, default=1000, help="cohort size (default 1000)")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${_SEED_ENV} or 0)")
    p.add_argument("--bootstrap", type=int, default=1000,
                   help="bootstrap replicates for the CI; 0 skips it (default 1000)")
    p.add_argument("--reps", type=int, default=1,
                   help="independent replications of the whole experiment (default 1)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="override a generating-process parameter; tuples as comma lists")
    p.add_argument("--cohort-out", metavar="PATH",
                   help="also write the observed cohort as CSV (single replication only)")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("analyze", help="estimate and report from a cohort CSV")
    p.add_argument("--input", required=True, metavar="PATH", help="cohort CSV file")
    p.add_argument("--bootstrap", type=int, default=1000,
                   help="bootstrap replicates for the CI; 0 skips it (default 1000)")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${_SEED_ENV} or 0)")
    p.add_argument("--curve", type=int, metavar="N",
                   help="include an N-point trade-off curve in the report")
    p.add_argument("--out", metavar="PATH")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{_SEED_ENV} must be an integer, got {env!r}") from None
    return 0


def _estimate_from_args(args) -> EffectEstimate:
    return EffectEstimate(
        measure=args.measure,
        value=args.value,
        ci_lower=args.lo,
        ci_upper=args.hi,
        outcome_rare=args.rare,
    )


def _curve_points(curve: Optional[int], timepoints: int = 2) -> int:
    if curve is None:
        return 0
    if timepoints != 2:
        print("note: trade-off curves exist only for two time points; omitting", file=sys.stderr)
        return 0
    return check_curve_points(curve)


def _cmd_evalue(args) -> str:
    rep = build_report(_estimate_from_args(args), args.timepoints,
                       _curve_points(args.curve, args.timepoints))
    if args.human:
        return _human_summary(rep)
    return report.write_report_json(rep)


def _human_summary(rep) -> str:
    lines = [
        f"Normalized risk ratio: {rep.normalized.rr:.2f}"
        + (" (inverted preventive estimate)" if rep.normalized.inverted else ""),
        f"E-value, equal strength at each of {rep.timepoints} time point(s): "
        f"{rep.evalue_equal_split:.2f}",
        f"E-value, single worst time point: {rep.evalue_single_timepoint:.2f}",
    ]
    if rep.ci_evalue_equal_split is not None:
        lines.append(
            f"CI-limit E-value, equal split: {rep.ci_evalue_equal_split:.2f}"
        )
        lines.append(
            f"CI-limit E-value, single time point: {rep.ci_evalue_single_timepoint:.2f}"
        )
    return "\n".join(lines) + "\n"


def _cmd_convert(args) -> str:
    normalized = normalize_estimate(_estimate_from_args(args))
    return f"{normalized.rr!r}\n"


def _cmd_curve(args) -> str:
    if args.limit is not None:
        check_curve_limit(args.rr, args.limit)
        target, label = args.limit, "ci_limit"
    else:
        target, label = args.rr, "point_estimate"
    points = tradeoff_curve(target, args.points)
    doc = report.curve_document(target, points, label)
    return report.write_curve(doc, args.format)


def _parse_overrides(pairs: list[str], n: int):
    """SimulationParams of cohort size n with the NAME=VALUE pairs applied;
    a pair for n replaces the given size."""
    from . import simulation

    valid = {f.name: f for f in dataclasses.fields(simulation.SimulationParams)}
    overrides: dict = {"n": n}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--param needs NAME=VALUE, got {pair!r}")
        name = name.strip()
        if name not in valid:
            raise ValueError(
                f"unknown parameter {name!r}; valid names: {', '.join(sorted(valid))}"
            )
        try:
            if name == "n":
                overrides[name] = int(raw)
            elif name.endswith("_model"):
                overrides[name] = tuple(float(v) for v in raw.split(","))
            else:
                overrides[name] = float(raw)
        except ValueError:
            raise ValueError(f"cannot parse value for {name!r}: {raw!r}") from None
    return simulation.SimulationParams(**overrides)


def _cmd_simulate(args) -> str:
    from . import simulation

    params = _parse_overrides(args.param, args.n)
    seed = _resolve_seed(args)
    if args.reps == 1:
        record = simulation.run_experiment(params, seed, args.bootstrap)
        if args.cohort_out:
            # block by block, as bytes: no whole-file text or buffer
            with open(args.cohort_out, "wb") as fh:
                fh.writelines(report._cohort_csv_blocks(record.cohort.observed))
        return report.write_experiment_json(record)
    if args.cohort_out:
        raise ValueError("--cohort-out requires a single replication")
    results = simulation.run_replications(params, seed, args.reps, args.bootstrap)
    enumerated = {
        "true_rr_enumerated": simulation.true_rr_enumerate(params),
        "true_rr_enumerated_observed_l1": simulation.true_rr_enumerate(
            params, "observed"
        ),
    }
    return report.write_replication_json(params, seed, results, enumerated)


def _cmd_analyze(args) -> str:
    from . import _rng, estimation

    # refuse out-of-range sizes and a bad seed before reading the file
    points = _curve_points(args.curve)
    bootstrap = estimation.check_replicates(args.bootstrap)
    seed = _rng.check_seed(_resolve_seed(args))
    cohort = report.read_cohort_csv(args.input)
    msm, rep = estimation.analyze_cohort(cohort, bootstrap, seed, curve_points=points)
    return report.write_analysis_json(msm, rep)


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "evalue": _cmd_evalue,
    "convert": _cmd_convert,
    "curve": _cmd_curve,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one `evtv` command line (default `sys.argv[1:]`) and return its
    exit code: 0 success, 2 invalid input, 3 estimation failure.

    May be called repeatedly in one process; each call parses with the
    shared parser and writes to the current `sys.stdout` and `sys.stderr`."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with warnings.catch_warnings(record=True) as collected:
            warnings.simplefilter("always")
            text = _COMMANDS[args.command](args)
        for w in collected:
            print(f"warning: {w.message}", file=sys.stderr)
        _write_text(args.out, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
