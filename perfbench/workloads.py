"""The four closed-loop workloads: how one op's input is made, which `evtv`
commands the op runs in-process, and how its outputs are checked.

One caller drives each workload and sends the next op only when the last
one has returned.  Op i gets its own seed, op_seed(workload seed, i), so no
op repeats an earlier op's input; at workload seed 0 the op seeds are
7, 8, 9, ..., which puts the acceptance suite's frozen fixture (cohort and
bootstrap seed 7) on op 0 of `analyze_boot`.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import CheckFailed, require

DEFAULT_SEED = 0
_SEED_STRIDE = 1_000_000
# A run stops early, with fewer ops than planned, once its op time passes
# this many times --seconds, so that a much slower program still finishes.
OVERRUN_FACTOR = 3


def planned_ops(workload, seconds: float) -> int:
    """Ops in one run: `seconds` of work at the workload's nominal op time.

    The count depends only on `seconds`, never on how fast this run goes, so
    a seed always gives the same inputs, the same outputs and the same
    failure count.  It is rounded to whole blocks of `workload.block` ops.
    """
    blocks = round(seconds / (workload.nominal_op_s * workload.block))
    return max(1, blocks) * workload.block


def op_seed(workload_seed: int, index: int) -> int:
    return (workload_seed * _SEED_STRIDE + 7 + index) % 2**63


@dataclass
class Op:
    index: int
    seed: int
    argvs: list            # one evtv command line per call, run in order
    expect: int = 0        # documented exit code of every call
    kind: str = "ok"       # input class (evalue_batch labels out-of-contract inputs)
    info: dict = field(default_factory=dict)


@dataclass
class Call:
    code: object           # exit code, or None when main raised
    out: str
    err: str
    raised: str = ""


def run_cli(cli, argv: list) -> Call:
    """Run `evtv <argv>` in this process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is an op failure, not a crash
            return Call(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
    return Call(code, out.getvalue(), err.getvalue())


def _simulate_cohort(cli, n: int, seed: int, csv_path: Path, json_path: Path) -> None:
    """Write the seeded cohort through the CLI, the interface users script."""
    call = run_cli(cli, ["simulate", "--n", str(n), "--bootstrap", "0", "--seed", str(seed),
                         "--cohort-out", str(csv_path), "--out", str(json_path)])
    if call.code != 0:
        raise RuntimeError(f"simulate --n {n} --seed {seed} failed: {call.raised or call.err}")


def cohort_digest(cli, n: int, seed: int, work: Path) -> str:
    csv_path = work / f"provenance-{n}-{seed}.csv"
    _simulate_cohort(cli, n, seed, csv_path, work / "provenance.json")
    digest = checks.sha256_file(csv_path)
    csv_path.unlink()
    return digest


class AnalyzeBoot:
    """`analyze --bootstrap 1000 --curve 200` on an n=1000 cohort CSV."""

    name = "analyze_boot"
    why = ("the analyst's default path; the percentile bootstrap is ~95% of the op, "
           "CSV, report and E-values under 2%")
    n, replicates, curve = 1000, 1000, 200
    provenance = ((1000, 7), (1000, 8))
    nominal_op_s, block = 2.8, 1

    def prepare(self, cli, index, seed, work):
        path = work / f"boot-{index}.csv"
        _simulate_cohort(cli, self.n, seed, path, work / "boot-sim.json")
        argv = ["analyze", "--input", str(path), "--bootstrap", str(self.replicates),
                "--seed", str(seed), "--curve", str(self.curve)]
        return Op(index, seed, [argv], info={"csv": path})

    def check(self, op, calls):
        doc = checks.strict_json(calls[0].out)
        checks.check_analysis(doc, with_ci=True, curve_points=self.curve)
        est = doc["estimate"]
        if op.seed == checks.REFERENCE_SEED:
            checks.close(est["rr_obs"], checks.REFERENCE_RR_OBS, "REFERENCE_RR_OBS", checks.REF_TOL)
            checks.close(est["ci_lower"], checks.REFERENCE_CI[0], "REFERENCE_CI[0]", checks.REF_TOL)
            checks.close(est["ci_upper"], checks.REFERENCE_CI[1], "REFERENCE_CI[1]", checks.REF_TOL)
        sha = checks.sha256_file(op.info["csv"])
        op.info["csv"].unlink()
        values = {k: est[k] for k in ("rr_obs", "ci_lower", "ci_upper", "weight_mean")}
        return values, sha


class CohortRoundtrip:
    """`simulate --n 100000 --cohort-out f.csv`, then `analyze --input f.csv`."""

    name = "cohort_roundtrip"
    why = ("registry-scale path without bootstrap: cohort generation and the CSV "
           "write and read dominate, and row objects set the peak memory")
    n = 100_000
    provenance = ((1000, 7), (1000, 8), (100_000, 7))
    nominal_op_s, block = 2.1, 1

    def prepare(self, cli, index, seed, work):
        path = work / "roundtrip.csv"
        sim = ["simulate", "--n", str(self.n), "--bootstrap", "0", "--seed", str(seed),
               "--cohort-out", str(path)]
        return Op(index, seed, [sim, ["analyze", "--input", str(path), "--bootstrap", "0"]],
                  info={"csv": path})

    def check(self, op, calls):
        sim = checks.strict_json(calls[0].out)
        ana = checks.strict_json(calls[1].out)
        checks.check_experiment(sim, self.n, op.seed)
        checks.check_analysis(ana, with_ci=False, curve_points=0)
        for key in ("rr_obs", "p11", "p00", "weight_mean", "weight_max"):
            require(ana["estimate"][key] == sim["estimate"][key],
                    f"roundtrip: analyze {key} differs from simulate")
        rows = checks.read_cohort_rows(op.info["csv"])
        require(rows == self.n, f"roundtrip: re-read {rows} rows, expected {self.n}")
        sha = checks.sha256_file(op.info["csv"])
        values = {"rr_obs": sim["estimate"]["rr_obs"], "true_rr_mc": sim["true_rr_mc"],
                  "weight_mean": sim["estimate"]["weight_mean"]}
        return values, sha


class ReplicationStudy:
    """`simulate --n 1000 --reps 200 --bootstrap 0`."""

    name = "replication_study"
    why = ("the methods researcher's path: many small cohorts with one fit each, "
           "so per-call overhead in generation and estimation dominates")
    n, reps = 1000, 200
    provenance = ((1000, 7), (1000, 8))
    nominal_op_s, block = 2.0, 1

    def prepare(self, cli, index, seed, work):
        argv = ["simulate", "--n", str(self.n), "--reps", str(self.reps),
                "--bootstrap", "0", "--seed", str(seed)]
        return Op(index, seed, [argv])

    def check(self, op, calls):
        doc = checks.strict_json(calls[0].out)
        checks.check_replications(doc, self.reps, self.n, op.seed)
        s = doc["summary"]
        detail = doc["replications_detail"]
        values = {k: s[k] for k in ("rr_obs_mean", "rr_obs_sd", "true_rr_mc_mean")}
        values["failures"] = s["failures"]
        values["first_rr_obs"] = detail[0].get("rr_obs", 0.0)
        values["last_rr_obs"] = detail[-1].get("rr_obs", 0.0)
        return values, None


# Out-of-contract inputs of evalue_batch: every OUT_OF_CONTRACT_EVERY-th op,
# cycling through these kinds.  Each has the documented outcome exit code 2.
# The last three reproduce known defects (Infinity written to JSON, and an
# uncaught ZeroDivisionError) and so fail until the program is fixed.
OUT_OF_CONTRACT_EVERY = 20
OUT_OF_CONTRACT = {
    "nonpositive": ["evalue", "--measure", "rr", "--value=-1.5", "--timepoints", "2"],
    "lo_gt_hi": ["evalue", "--measure", "or", "--value", "1.5", "--lo", "2.0", "--hi", "1.2",
                 "--timepoints", "2"],
    "inf": ["evalue", "--measure", "rr", "--value", "inf", "--timepoints", "2"],
    "subnormal": ["evalue", "--measure", "rr", "--value", "1e-320", "--timepoints", "2"],
    "hr_huge": ["evalue", "--measure", "hr", "--value", "1e300", "--timepoints", "2"],
}
KNOWN_DEFECT_KINDS = ("inf", "subnormal", "hr_huge")


class EvalueBatch:
    """One `evalue` or `curve` call on a seeded mix of published estimates."""

    name = "evalue_batch"
    why = ("E-value core and CLI overhead on published estimates, ms-scale ops; "
           "5% are out-of-contract inputs that must exit 2")
    curve_points = 200
    provenance = ((1000, 7), (1000, 8))
    # whole cycles of the out-of-contract kinds, so every run has the same share
    nominal_op_s, block = 0.0026, OUT_OF_CONTRACT_EVERY * len(OUT_OF_CONTRACT)

    def prepare(self, cli, index, seed, work):
        if index % OUT_OF_CONTRACT_EVERY == OUT_OF_CONTRACT_EVERY - 1:
            kinds = list(OUT_OF_CONTRACT)
            kind = kinds[(index // OUT_OF_CONTRACT_EVERY) % len(kinds)]
            return Op(index, seed, [OUT_OF_CONTRACT[kind]], expect=2, kind=kind)
        rng = random.Random(seed)
        if rng.random() < 0.8:
            return self._evalue_op(rng, index, seed)
        return self._curve_op(rng, index, seed)

    def _evalue_op(self, rng, index, seed):
        measure = rng.choice(("rr", "or", "hr"))
        rare = rng.random() < 0.5
        value = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        argv = ["evalue", "--measure", measure, "--value", repr(value)]
        lo = hi = None
        if rng.random() < 0.5:
            lo = value / math.exp(rng.uniform(0.05, 0.8))
            hi = value * math.exp(rng.uniform(0.05, 0.8))
            argv += ["--lo", repr(lo), "--hi", repr(hi)]
        if rare:
            argv.append("--rare")
        timepoints = rng.randint(1, 4)
        argv += ["--timepoints", str(timepoints)]
        curve = 0
        if timepoints == 2 and rng.random() < 0.5:
            curve = self.curve_points
            argv += ["--curve", str(curve)]
        info = {"measure": measure, "value": value, "lo": lo, "hi": hi, "rare": rare,
                "timepoints": timepoints, "curve": curve}
        return Op(index, seed, [argv], info=info)

    def _curve_op(self, rng, index, seed):
        rr = math.exp(rng.uniform(0.05, math.log(5.0)))
        fmt = rng.choice(("csv", "svg"))
        argv = ["curve", "--rr", repr(rr), "--points", str(self.curve_points), "--format", fmt]
        target = rr
        if rng.random() < 0.3:
            target = 1.0 + (rr - 1.0) * rng.uniform(0.1, 1.0)
            argv += ["--limit", repr(target)]
        return Op(index, seed, [argv], info={"format": fmt, "target": target})

    def check(self, op, calls):
        out = calls[0].out
        i = op.info
        if "format" in i:
            if i["format"] == "svg":
                checks.check_curve_svg(out, i["target"], self.curve_points)
                return {}, None
            rows = checks.parse_curve_csv(out)
            checks.check_curve_points(rows, i["target"], self.curve_points, "curve csv")
            return {"strength_max": rows[-1][0]}, None
        doc = checks.strict_json(out)
        checks.check_report(doc, i["measure"], i["value"], i["lo"], i["hi"], i["rare"],
                            i["timepoints"], i["curve"])
        keys = ("normalized_rr", "evalue_equal_split", "evalue_single",
                "ci_evalue_equal_split", "ci_evalue_single")
        return {k: doc[k] for k in keys if k in doc}, None


WORKLOADS = {w.name: w for w in (AnalyzeBoot(), CohortRoundtrip(), ReplicationStudy(),
                                 EvalueBatch())}


def judge(workload, op: Op, calls: list, reference: list | None):
    """Return (key values, failure reason or None) for one completed op.

    An op fails when a call raises, returns another exit code than the
    documented one, or fails an output check; for the default workload seed
    its key values must also match those recorded on the seed commit.
    """
    for c in calls:
        if c.raised:
            return None, f"raised {c.raised}"
        if c.code != op.expect:
            return None, f"exit code {c.code}, expected {op.expect}"
    if op.expect != 0:
        if any(c.out for c in calls):
            return None, "wrote output for a rejected input"
        return None, None
    try:
        values, sha = workload.check(op, calls)
        ref = reference[op.index] if reference and op.index < len(reference) else None
        if ref is not None:
            require(ref["seed"] == op.seed, "reference: op seed mismatch")
            if ref.get("sha256") is not None:
                require(sha == ref["sha256"], "provenance: cohort CSV digest differs from the "
                        "seed commit")
            for key, want in ref["values"].items():
                require(key in values, f"reference: missing {key}")
                checks.close(values[key], want, f"reference {key}", checks.REF_TOL)
    except CheckFailed as exc:
        return None, str(exc)
    except (KeyError, TypeError, IndexError, AttributeError, ValueError, ArithmeticError) as exc:
        return None, f"malformed output: {type(exc).__name__}: {exc}"
    return {"values": values, "sha256": sha}, None
