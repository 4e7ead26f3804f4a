"""Whole-process peak memory of the registry-scale path in two checkouts.

    python3 tools/peak_rss.py N OLD_CHECKOUT NEW_CHECKOUT [--bootstrap B] [--reps R]

For each checkout, in a fresh interpreter with that checkout's `src/` on
PYTHONPATH, runs

    evtv simulate --n N --bootstrap 0 --seed 0 --cohort-out cohort.csv
    evtv analyze --input cohort.csv --bootstrap B

with B = 0 unless --bootstrap gives it, and prints each command's peak
resident set size (`ru_maxrss` of the child, from os.wait4) in MiB; the
bytes per subject, the growth of that peak over the same command's at
n = 1000 (FLOOR_N, the interpreter and its imports) divided by N - 1000;
and whether the new checkout's CSV and JSON output match the old one's
byte for byte.  With --reps R it runs the replication study

    evtv simulate --n N --reps R --bootstrap B --seed 0

in place of the round trip, at any N from 1, and prints its peak in each
checkout and whether the two documents match.  Exits 1 if a command
fails or an output differs.  Stdlib only; Linux reports ru_maxrss in KiB.

A child's ru_maxrss starts at this process's own peak, which Linux carries
into the child at exec, so the CSVs are compared by their sha256, read in
chunks: holding them would floor a later command's peak at their size.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def peak(checkout: Path, argv: list[str], cwd: str) -> tuple[float, bytes]:
    """(peak RSS in MiB, stdout) of `evtv argv` run from checkout in cwd."""
    env = {k: v for k, v in os.environ.items() if k != "EVTV_SEED"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen([sys.executable, "-m", "evtv.cli", *argv],
                                cwd=cwd, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: evtv {' '.join(argv)} exited {proc.returncode}")
        out.seek(0)
        return usage.ru_maxrss / 1024.0, out.read()


FLOOR_N = 1000


def measure(checkout: Path, n: int, bootstrap: str) -> dict[str, tuple[float, bytes]]:
    """Peak RSS and output of `simulate` and `analyze --bootstrap bootstrap`
    at size n, and the sha256 of the CSV `simulate` wrote (peak 0)."""
    with tempfile.TemporaryDirectory() as work:
        runs = {"simulate": peak(checkout, ["simulate", "--n", str(n), "--bootstrap", "0",
                                            "--seed", "0", "--cohort-out", "cohort.csv"], work)}
        csv = hashlib.sha256()
        with open(Path(work) / "cohort.csv", "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                csv.update(chunk)
        runs["analyze"] = peak(checkout, ["analyze", "--input", "cohort.csv",
                                          "--bootstrap", bootstrap], work)
    runs["cohort.csv"] = (0.0, csv.digest())
    return runs


def replication_study(checkout: Path, n: int, reps: str, bootstrap: str):
    """Peak RSS and output of `simulate --reps reps` at size n."""
    with tempfile.TemporaryDirectory() as work:
        return {"simulate": peak(checkout, ["simulate", "--n", str(n), "--reps", reps,
                                            "--bootstrap", bootstrap, "--seed", "0"], work)}


def main(argv: list[str]) -> int:
    argv, options = list(argv), {"--bootstrap": "0", "--reps": None}
    for flag in options:
        if flag in argv:
            k = argv.index(flag)
            options[flag] = argv[k + 1] if k + 1 < len(argv) else ""
            del argv[k:k + 2]
    bootstrap, reps = options["--bootstrap"], options["--reps"]
    if (len(argv) != 3 or not argv[0].isdigit()
            or int(argv[0]) <= (0 if reps is not None else FLOOR_N)
            or not bootstrap.isdigit() or not (reps is None or reps.isdigit())):
        print(__doc__, file=sys.stderr)
        return 2
    n = int(argv[0])
    checkouts = [Path(a) for a in argv[1:]]
    if reps is not None:
        old, new = (replication_study(c, n, reps, bootstrap) for c in checkouts)
        print(f"n = {n}, simulate --reps {reps} --bootstrap {bootstrap}")
        print(f"{'command':<10}{'old MiB':>10}{'new MiB':>10}")
        print(f"{'simulate':<10}{old['simulate'][0]:>10.2f}{new['simulate'][0]:>10.2f}")
        differs = [] if old["simulate"][1] == new["simulate"][1] else ["simulate"]
    else:
        floor = [measure(c, FLOOR_N, bootstrap) for c in checkouts]
        old, new = (measure(c, n, bootstrap) for c in checkouts)
        print(f"n = {n}" + (f", analyze --bootstrap {bootstrap}" if bootstrap != "0" else ""))
        print(f"{'command':<10}{'old MiB':>10}{'new MiB':>10}{'old B/subj':>12}{'new B/subj':>12}")
        for cmd in ("simulate", "analyze"):
            mib = [old[cmd][0], new[cmd][0]]
            per = [(m - f[cmd][0]) * 2**20 / (n - FLOOR_N) for m, f in zip(mib, floor)]
            print(f"{cmd:<10}{mib[0]:>10.1f}{mib[1]:>10.1f}{per[0]:>12.1f}{per[1]:>12.1f}")
        differs = [k for k in ("cohort.csv", "simulate", "analyze") if old[k][1] != new[k][1]]
    print("outputs: " + (f"DIFFER in {', '.join(differs)}" if differs else "identical"))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
