"""Span tracing around the calls into each evtv layer, and the per-layer
metrics derived from the spans.

Tracing wraps public names as the calling module sees them (for example
`evtv.cli.bootstrap_ci` and `evtv.simulation.bootstrap_ci` both become the
span `estimation.bootstrap_ci`), so the package itself is not edited.  Spans
are kept in memory as (name, start, end, parent, op, raised) and written out
when the run ends.  A name the package no longer has is skipped, and its
metrics then read 0.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

LAYERS = ("cli", "evalue", "estimation", "simulation", "report")

# module -> names to wrap there; the span is named after the defining layer
WRAP = {
    "evtv.cli": {
        "main": "cli.main",
        "build_parser": "cli.build_parser",
        "stabilized_weights": "estimation.stabilized_weights",
        "fit_msm": "estimation.fit_msm",
        "bootstrap_ci": "estimation.bootstrap_ci",
        "normalize_estimate": "evalue.normalize_estimate",
        "build_report": "evalue.build_report",
        "tradeoff_curve": "evalue.tradeoff_curve",
    },
    "evtv.simulation": {
        "generate_cohort": "simulation.generate_cohort",
        "true_rr_mc": "simulation.true_rr_mc",
        "true_rr_enumerate": "simulation.true_rr_enumerate",
        "run_experiment": "simulation.run_experiment",
        "run_replications": "simulation.run_replications",
        "stabilized_weights": "estimation.stabilized_weights",
        "fit_msm": "estimation.fit_msm",
        "bootstrap_ci": "estimation.bootstrap_ci",
        "normalize_estimate": "evalue.normalize_estimate",
        "build_report": "evalue.build_report",
    },
    "evtv.evalue": {
        "normalize_estimate": "evalue.normalize_estimate",
        "tradeoff_curve": "evalue.tradeoff_curve",
    },
    "evtv.report": {
        "read_cohort_csv": "report.read_cohort_csv",
        "write_cohort_csv": "report.write_cohort_csv",
        "write_report_json": "report.write_report_json",
        "write_experiment_json": "report.write_experiment_json",
        "write_analysis_json": "report.write_analysis_json",
        "write_replication_json": "report.write_replication_json",
        "write_curve": "report.write_curve",
        "curve_document": "report.curve_document",
    },
}

WRITE_JSON = (
    "report.write_report_json",
    "report.write_experiment_json",
    "report.write_analysis_json",
    "report.write_replication_json",
)


def _count_replicates(counts, args, kwargs, result):
    reps = kwargs.get("replicates", args[1] if len(args) > 1 else 1000)
    counts["estimation.bootstrap_ci.replicates"] += int(reps)


def _count_rows(counts, args, kwargs, result):
    params = kwargs.get("params", args[0] if args else None)
    counts["simulation.generate_cohort.rows"] += int(params.n)


def _count_read_bytes(counts, args, kwargs, result):
    source = kwargs.get("source", args[0] if args else None)
    if isinstance(source, (str, os.PathLike)):
        counts["report.read_cohort_csv.bytes"] += os.path.getsize(source)


def _count_written_bytes(counts, args, kwargs, result):
    counts["report.write_cohort_csv.bytes"] += len(result.encode("utf-8"))


def _count_failed_replications(counts, args, kwargs, result):
    counts["simulation.replications_failed"] += sum(
        1 for r in result if getattr(r, "error", None) is not None
    )


COUNTERS = {
    "estimation.bootstrap_ci": _count_replicates,
    "simulation.generate_cohort": _count_rows,
    "report.read_cohort_csv": _count_read_bytes,
    "report.write_cohort_csv": _count_written_bytes,
    "simulation.run_replications": _count_failed_replications,
}


class Tracer:
    """Records one span per wrapped call made while `op` is set (>= 0);
    single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.op = -1
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # outside a timed op: input preparation or checks
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every name of WRAP in the imported evtv modules."""
        for mod_name, names in WRAP.items():
            mod = importlib.import_module(mod_name)
            for attr, span in names.items():
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(mod, attr, self.wrap(span, fn))

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer_metrics(tracer: Tracer, op_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-op self times, counts, rates and layer shares of a traced phase.

    op_walls holds the traced ops' wall times; untraced_walls those of the
    untraced phase of the same run, for the tracing overhead.
    """
    n_ops = len(op_walls)
    wall = sum(op_walls)
    own = self_times(tracer.spans)
    self_by_name: defaultdict = defaultdict(float)
    calls: defaultdict = defaultdict(int)
    errors = 0
    root_total = 0.0
    for rec, t in zip(tracer.spans, own):
        name, start, end, parent, _, raised = rec
        self_by_name[name] += t
        calls[name] += 1
        if parent < 0:
            root_total += end - start
        if raised and name.startswith("estimation."):
            errors += 1
    counts = tracer.counts

    def per_op(x):
        return x / n_ops

    def rate(amount, name):
        return amount / self_by_name[name] if self_by_name[name] > 0 else 0.0

    m = {
        "estimation.bootstrap_ci.self_s": per_op(self_by_name["estimation.bootstrap_ci"]),
        "estimation.bootstrap_ci.replicates_per_s": rate(
            counts["estimation.bootstrap_ci.replicates"], "estimation.bootstrap_ci"),
        "estimation.bootstrap_ci.calls": per_op(calls["estimation.bootstrap_ci"]),
        "estimation.stabilized_weights.self_s": per_op(
            self_by_name["estimation.stabilized_weights"]),
        "estimation.fit_msm.self_s": per_op(self_by_name["estimation.fit_msm"]),
        "estimation.errors": per_op(errors),
        "simulation.generate_cohort.self_s": per_op(self_by_name["simulation.generate_cohort"]),
        "simulation.generate_cohort.rows_per_s": rate(
            counts["simulation.generate_cohort.rows"], "simulation.generate_cohort"),
        "simulation.run_replications.self_s": per_op(
            self_by_name["simulation.run_replications"]),
        "simulation.replications_failed": per_op(counts["simulation.replications_failed"]),
        "report.read_cohort_csv.self_s": per_op(self_by_name["report.read_cohort_csv"]),
        "report.read_cohort_csv.mb_per_s": rate(
            counts["report.read_cohort_csv.bytes"] / 1e6, "report.read_cohort_csv"),
        "report.write_cohort_csv.self_s": per_op(self_by_name["report.write_cohort_csv"]),
        "report.write_cohort_csv.mb_per_s": rate(
            counts["report.write_cohort_csv.bytes"] / 1e6, "report.write_cohort_csv"),
        "report.write_json.self_s": per_op(sum(self_by_name[n] for n in WRITE_JSON)),
        "report.write_curve.self_s": per_op(self_by_name["report.write_curve"]),
        "evalue.normalize_estimate.self_s": per_op(self_by_name["evalue.normalize_estimate"]),
        "evalue.build_report.self_s": per_op(self_by_name["evalue.build_report"]),
        "evalue.tradeoff_curve.self_s": per_op(self_by_name["evalue.tradeoff_curve"]),
        "cli.main.self_s": per_op(self_by_name["cli.main"]),
        "cli.build_parser.self_s": per_op(self_by_name["cli.build_parser"]),
    }
    for layer in LAYERS:
        total = sum(t for name, t in self_by_name.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.share"] = total / wall
    m["unattributed.self_s"] = per_op(wall - root_total)
    traced_mean = wall / n_ops
    untraced_mean = sum(untraced_walls) / len(untraced_walls)
    m["trace.overhead_frac"] = traced_mean / untraced_mean - 1.0
    return m
