"""Byte-for-byte comparison of the evtv CLI between two checkouts.

Runs a fixed list of commands, each in a fresh interpreter, against the
`src/` of each checkout and compares exit code, stdout, stderr and the
`--cohort-out` CSV.  Fresh processes matter: a warning raised while a
module is first imported inside a command would add a stderr line that
an in-process test, with everything already loaded, cannot see.

    python3 tools/cli_parity.py OLD_CHECKOUT NEW_CHECKOUT

Exits 0 when every command matches, 1 otherwise.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "evalue --measure rr --value 1.73 --lo 1.52 --hi 1.98 --timepoints 2 --human",
    "evalue --measure or --value 1.38 --lo 1.07 --hi 1.77 --rare --timepoints 2",
    "evalue --measure rr --value 1.73 --timepoints 2 --curve 40",
    "convert --measure or --value 1.38 --lo 1.07 --hi 1.77",
    "curve --rr 1.73 --points 200 --format svg",
    "curve --rr 1.73 --limit 1.52 --format csv",
    "simulate --n 1000 --seed 7 --cohort-out c.csv",
    "simulate --reps 200 --bootstrap 0 --seed 12345",
    "simulate --reps 3 --bootstrap 100 --seed 5",
    "simulate --param p_u0=0.25 --param a1_model=-1.2,1.0,1.2,0",
    "analyze --input c.csv --bootstrap 1000 --seed 3 --curve 40",
]


def run_all(checkout: Path) -> list[tuple]:
    """(exit code, stdout, stderr, c.csv bytes or None) of every command,
    run in order in one scratch directory so `analyze` reads the CSV that
    `simulate` wrote."""
    env = {k: v for k, v in os.environ.items() if k != "EVTV_SEED"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    results = []
    with tempfile.TemporaryDirectory() as work:
        csv = Path(work) / "c.csv"
        for command in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "evtv.cli", *command.split()],
                cwd=work, env=env, capture_output=True,
            )
            written = csv.read_bytes() if "--cohort-out" in command else None
            results.append((proc.returncode, proc.stdout, proc.stderr, written))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (run_all(Path(a)) for a in argv)
    fields = ("exit code", "stdout", "stderr", "cohort CSV")
    differs = 0
    for command, a, b in zip(COMMANDS, old, new):
        diff = [f for f, x, y in zip(fields, a, b) if x != y]
        differs += bool(diff)
        print(f"{'DIFFERS in ' + ', '.join(diff) if diff else 'same'}: {command} "
              f"(exit {b[0]}, {len(b[1])} B stdout, {len(b[2])} B stderr)")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
