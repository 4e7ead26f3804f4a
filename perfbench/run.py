"""Benchmark of the evtv command-line pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_boot --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, their
timings scaled to reference-speed seconds (see speed.py), with --trace 1
the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit and sample count, the failures,
and the environment the numbers were measured in.  See README.md in this
directory for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import speed_factor

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze_boot", "cohort_roundtrip", "replication_study", "evalue_batch")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# times `import evtv.cli`, then (warm) the reference job of speed.py
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import evtv.cli; "
    "t = time.perf_counter() - t0; sys.path.insert(0, sys.argv[1]); import speed; "
    "job = speed.job_inputs(); speed.reference_job_s(job); "
    "print(repr(t), repr(speed.reference_job_s(job)))"
)


def load_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {"units": units,
            "end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # one BLAS thread: the kernels are small, and the box may have 2 cores
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def measure_setup(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import evtv.cli, after one that
    fills the bytecode cache, and the reference job's time in each."""
    imports, jobs = [], []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        t_import, t_job = proc.stdout.strip().splitlines()[-1].split()
        imports.append(float(t_import))
        jobs.append(float(t_job))
    return imports[1:], jobs[1:]


def run_workload(root: Path, env: dict, spec: dict, name: str, seed: int,
                 seconds: int, trace: int) -> dict:
    setup, setup_jobs = ([], []) if trace else measure_setup(root, env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    extra = result["extra"]
    if not trace:
        # in reference-speed seconds, like the worker's timings; see speed.py
        result["metrics"]["setup_s"] = statistics.median(setup) * speed_factor(setup_jobs)
        extra["setup_samples"] = len(setup)
        extra["wall_setup_s"] = statistics.median(setup)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    result["metrics"] = {m: {"value": result["metrics"][m], "unit": spec["units"][m]}
                         for m in wanted}
    print_report(name, seed, seconds, trace, result)
    return result


def print_report(name, seed, seconds, trace, result) -> None:
    extra = result["extra"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}  "
          f"ops={attempted} of {extra['planned_ops']} planned  correct={result['correct']}")
    if attempted < extra["planned_ops"]:
        print("  stopped early: op time passed the overrun limit")
    samples = {
        "setup_s": f"n={extra.get('setup_samples')} fresh imports",
        "latency_p50_s": f"n={extra.get('latency_samples')} ok ops",
        "throughput_ops_per_s": f"n={attempted - failed} ok ops in "
                                f"{extra.get('run_wall_s', 0.0):.3f} s",
        "peak_rss_mb": "n=1 worker process",
    }
    for metric, m in result["metrics"].items():
        if metric.endswith("_per_s") and trace:
            note = "over every traced call"
        elif metric.endswith(("share", "overhead_frac")):
            note = f"of traced op time, n={attempted} ops"
        else:
            note = samples.get(metric, f"per traced op, n={attempted} ops")
        print(f"  {metric:44s} {m['value']:<22.10g} {m['unit']:8s} {note}")
    if not trace:
        print(f"  timings above are in reference-speed seconds: wall times scaled by "
              f"{extra['speed_factor']:.6g} (n={extra['speed_samples']} reference jobs); wall "
              f"latency_p50_s {extra['wall_latency_p50_s']:.6g}, throughput_ops_per_s "
              f"{extra['wall_throughput_ops_per_s']:.6g}, setup_s {extra['wall_setup_s']:.6g}")
        if "latency_p90_s" in extra:
            print(f"  {'latency_p90_s':44s} {extra['latency_p90_s']:<22.10g} {'s':8s} "
                  f"n={extra['latency_samples']} ok ops")
        else:
            print(f"  {'latency_p90_s':44s} {'omitted':22s} {'s':8s} "
                  f"fewer than 100 ops")
    print(f"  {'failed_frac':44s} {extra['failed_frac']:<22.10g} {'fraction':8s} "
          f"{failed}/{attempted} ops; by input kind {extra['failures_by_kind']}")
    if extra["known_defect_input_frac"]:
        print(f"  {'known_defect_input_frac':44s} {extra['known_defect_input_frac']:<22.10g} "
              f"{'fraction':8s} inputs reproducing known defects")
    for f in extra["failure_examples"]:
        print(f"  failure: op {f['op']} seed {f['seed']} [{f['kind']}] {f['reason']}")
    for p in extra["problems"]:
        print(f"  problem: {p}")
    for key in ("spans", "unwrapped_names"):
        if key in extra:
            print(f"  {key}: {extra[key]}")
    print("  environment: " + json.dumps(extra["environment"], sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description="evtv pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "evtv" / "__init__.py").is_file():
        print(f"perfbench: no evtv sources under {root / 'src'}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    env = worker_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(root, env, spec, name, args.seed, args.seconds, args.trace)
               for name in names]
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{m}": v for n, r in zip(names, results)
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
