"""One measured run of one workload in a fresh interpreter.

Started by run.py from the root of a checkout.  Imports evtv from the
checkout's `src/`, verifies input provenance, runs the closed loop for the
number of ops that --seconds plans (see workloads.planned_ops), checks every
op's outputs and prints one JSON document as its last line of standard output.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads
from spans import Tracer, per_layer_metrics

REFERENCE_FILE = Path(__file__).with_name("reference.json")
WORK_DIR = ".perfbench_work"
MIN_P90_OPS = 100
# the reference job runs before the first op and then after the op that
# completes each further JOB_EVERY_S seconds of op time
JOB_EVERY_S = 1.0


def import_evtv(root: Path):
    """Import evtv.cli from root/src and refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import evtv.cli

    where = Path(evtv.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported evtv from {where}, not from {src}")
    return evtv


def latency_summary(latencies: list[float]) -> dict:
    """Median, and p90 only when at least ten samples lie beyond it."""
    out = {"latency_p50_s": statistics.median(latencies), "latency_samples": len(latencies)}
    if len(latencies) >= MIN_P90_OPS:
        out["latency_p90_s"] = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return out


def measure(cli, workload, seed, count, limit_s, start, work, reference, probe,
            tracer=None) -> dict:
    """Run ops start, start+1, ... until `count` have run, or stop early once
    `limit_s` seconds of op time have passed.

    Input preparation and output checks happen with the clock stopped, so
    the run's wall time is the time spent inside evtv calls.  A probe, when
    given, runs the reference job of speed.py between ops, with the op clock
    stopped, to gauge the host's speed over the same stretch of time.
    """
    busy = last_job = 0.0
    walls, ok_walls, kinds, failures = [], [], [], []
    jobs = [probe.sample()] if probe else []
    index = start
    while index < start + count and busy < limit_s:
        op = workload.prepare(cli, index, workloads.op_seed(seed, index), work)
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        calls = [workloads.run_cli(cli, argv) for argv in op.argvs]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        busy += dt
        walls.append(dt)
        if probe and busy - last_job >= JOB_EVERY_S:
            jobs.append(probe.sample())
            last_job = busy
        kinds.append(op.kind)
        _, reason = workloads.judge(workload, op, calls, reference)
        if reason is None:
            ok_walls.append(dt)
        else:
            failures.append({"op": index, "seed": op.seed, "kind": op.kind, "reason": reason})
        index += 1
    return {"walls": walls, "ok_walls": ok_walls, "kinds": kinds, "failures": failures,
            "jobs": jobs}


def environment(root: Path, seed: int) -> dict:
    import numpy

    kernels = sys.modules.get("evtv._kernels")
    backend = "unknown"
    if kernels is not None and hasattr(kernels, "active_backend"):
        backend = kernels.active_backend().name
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu_model(),
        "workload_seed": seed,
    }


def git_sha(root: Path) -> str:
    """HEAD of root's own .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    evtv = import_evtv(root)
    cli = evtv.cli
    workload = workloads.WORKLOADS[args.workload]
    recorded = json.loads(REFERENCE_FILE.read_text())
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = recorded["ops"][args.workload]

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    try:
        for n, s in workload.provenance:
            got = workloads.cohort_digest(cli, n, s, work)
            if got != recorded["provenance"][f"{n}:{s}"]:
                problems.append(f"provenance: cohort n={n} seed={s} digest {got} differs "
                                "from the seed commit")
        count = workloads.planned_ops(workload, args.seconds)
        limit_s = workloads.OVERRUN_FACTOR * args.seconds
        if args.trace:
            count = max(count, 2)  # at least one untraced and one traced op
            half = count // 2
            plain = measure(cli, workload, args.seed, half, limit_s / 2, 0, work, reference,
                            None)
            tracer = Tracer()
            tracer.install()
            traced = measure(cli, workload, args.seed, count - half, limit_s / 2,
                             len(plain["walls"]), work, reference, None, tracer)
            runs = (plain, traced)
            metrics = per_layer_metrics(tracer, traced["walls"], plain["walls"])
            spans_dir = root / WORK_DIR / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
            extra = {"spans": len(tracer.spans), "unwrapped_names": tracer.missing}
        else:
            probe = speed.SpeedProbe()
            try:
                run = measure(cli, workload, args.seed, count, limit_s, 0, work, reference,
                              probe)
            finally:
                probe.close()
            runs = (run,)
            lat = latency_summary(run["ok_walls"] or run["walls"])
            ok_ops = len(run["ok_walls"])
            # timings in reference-speed seconds; see speed.py
            factor = speed.speed_factor(run["jobs"])
            metrics = {
                "latency_p50_s": lat["latency_p50_s"] * factor,
                "throughput_ops_per_s": ok_ops / (sum(run["walls"]) * factor),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            extra = {"latency_samples": lat["latency_samples"],
                     "run_wall_s": sum(run["walls"]),
                     "speed_factor": factor,
                     "speed_samples": len(run["jobs"]),
                     "wall_latency_p50_s": lat["latency_p50_s"],
                     "wall_throughput_ops_per_s": ok_ops / sum(run["walls"])}
            if "latency_p90_s" in lat:
                extra["latency_p90_s"] = lat["latency_p90_s"] * factor
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r["walls"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # out-of-contract inputs that are mishandled count as failed ops; any
    # other failure also means the program's outputs are wrong
    wrong = [f for f in failures if f["kind"] == "ok"]
    failed_kinds = [f["kind"] for f in failures]
    result = {
        "correct": not problems and not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "extra": {
            **extra,
            "planned_ops": count,
            "failed_frac": len(failures) / attempted,
            "failures_by_kind": {k: failed_kinds.count(k) for k in sorted(set(failed_kinds))},
            "failure_examples": failures[:5],
            "problems": problems,
            "known_defect_input_frac": sum(
                k in workloads.KNOWN_DEFECT_KINDS for r in runs for k in r["kinds"]) / attempted,
            "environment": environment(root, args.seed),
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
