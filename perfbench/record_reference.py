"""Record the reference values that runs at the default workload seed are
checked against, and the cohort digests every run verifies.

Run once, from the root of a checkout of the commit whose numbers are the
reference, and commit the resulting perfbench/reference.json:

    python3 perfbench/record_reference.py

Ops beyond the recorded count at the default seed, and runs at other seeds,
get the closed-form checks only.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import workloads
from worker import REFERENCE_FILE, WORK_DIR, git_sha, import_evtv

# comfortably more ops than a 25 s run reaches on a 2-core x86 box
RECORDED_OPS = {"analyze_boot": 16, "cohort_roundtrip": 24, "replication_study": 24,
                "evalue_batch": 300}


def main() -> int:
    root = Path.cwd()
    cli = import_evtv(root).cli
    work = root / WORK_DIR / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    doc = {"commit": git_sha(root), "workload_seed": workloads.DEFAULT_SEED,
           "provenance": {}, "ops": {}}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for n, s in workload.provenance:
                doc["provenance"][f"{n}:{s}"] = workloads.cohort_digest(cli, n, s, work)
            entries = []
            for index in range(RECORDED_OPS[name]):
                op = workload.prepare(cli, index, workloads.op_seed(workloads.DEFAULT_SEED,
                                                                    index), work)
                calls = [workloads.run_cli(cli, argv) for argv in op.argvs]
                kv, reason = workloads.judge(workload, op, calls, None)
                if op.expect != 0:
                    entries.append(None)
                    continue
                if reason is not None:
                    raise RuntimeError(f"{name} op {index} fails its checks: {reason}")
                entries.append({"seed": op.seed, **kv})
            doc["ops"][name] = entries
            print(f"{name}: recorded {len(entries)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = doc.pop("ops")
    text = json.dumps(doc, indent=1)[:-2] + ',\n "ops": {\n'
    text += ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join("   " + json.dumps(e) for e in entries) + "\n  ]"
        for name, entries in ops.items())
    REFERENCE_FILE.write_text(text + "\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
