"""Byte-for-byte comparison of the evtv CLI between two checkouts.

Runs a fixed list of commands, each in a fresh interpreter, against the
`src/` of each checkout and compares exit code, stdout, stderr and the
`--cohort-out` CSV, argparse's version and usage-error text included.
Fresh processes matter: a warning raised while a module is first
imported inside a command would add a stderr line that an in-process
test, with everything already loaded, cannot see.

The `analyze` commands cover both ways the cohort reader parses a body:
files in the writer's layout (`simulate --cohort-out`, n = 1000 and
100,000) and the FIXTURES written here, which are not in that layout
(CRLF, quoted and padded cells, an extra column) or not valid.

    python3 tools/cli_parity.py OLD_CHECKOUT NEW_CHECKOUT

Exits 0 when every command matches, 1 otherwise.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    # argparse's own output: version text, usage errors (exit 2)
    "--version",
    "evalue --measure xx --value 1 --timepoints 2",
    "evalue --measure rr --timepoints 2",
    "curve --rr 1.73 --format png",
    "evalue --measure rr --value 1.73 --lo 1.52 --hi 1.98 --timepoints 2 --human",
    "evalue --measure or --value 1.38 --lo 1.07 --hi 1.77 --rare --timepoints 2",
    "evalue --measure rr --value 1.73 --timepoints 2 --curve 40",
    "evalue --measure or --value 0.8 --lo 0.6 --hi 1.2 --timepoints 2 --curve 5",
    "evalue --measure rr --value 1 --timepoints 2 --curve 5",
    "convert --measure or --value 1.38 --lo 1.07 --hi 1.77",
    "curve --rr 1.73 --points 200 --format svg",
    "curve --rr 1.73 --limit 1.52 --format csv",
    "curve --rr 1 --points 7",
    "simulate --n 1000 --seed 7 --cohort-out c.csv",
    "simulate --reps 200 --bootstrap 0 --seed 12345",
    "simulate --reps 3 --bootstrap 100 --seed 5",
    "simulate --reps 100 --n 40 --bootstrap 0 --seed 2",
    "simulate --reps 20 --n 150 --bootstrap 100 --seed 4",
    "simulate --param p_u0=0.25 --param a1_model=-1.2,1.0,1.2,0",
    "analyze --input c.csv --bootstrap 1000 --seed 3 --curve 40",
    "simulate --n 100000 --bootstrap 0 --seed 11 --cohort-out big.csv",
    "analyze --input big.csv --bootstrap 0",
    "analyze --input crlf_quoted_extra.csv --bootstrap 200 --seed 4",
    "analyze --input bom.csv --bootstrap 0",
    "analyze --input bad_cell.csv --bootstrap 0",
    "analyze --input short_row.csv --bootstrap 0",
    "analyze --input missing_column.csv --bootstrap 0",
]


def _csv(lines: list[list[str]], end: str = "\n") -> bytes:
    return (end.join(",".join(line) for line in lines) + end).encode("utf-8")


def fixtures() -> dict[str, bytes]:
    """Cohort CSV files by name: 400 seeded coin-flip subjects written in
    ways the writer never uses; the first two are valid."""
    rng = random.Random(20)
    rows = [[str(rng.randint(0, 1)) for _ in range(5)] for _ in range(400)]
    header = ["l0", "a0", "l1", "a1", "y"]
    return {
        "crlf_quoted_extra.csv": _csv(
            [["Y", "a1", '"l1"', "A0", "l0", "site"]]
            + [[y, a1, f'"{l1}"', f" {a0} ", l0, f"s{i:03d}"]
               for i, (l0, a0, l1, a1, y) in enumerate(rows)],
            "\r\n"),
        "bom.csv": "\ufeff".encode("utf-8") + _csv([header] + rows),
        "bad_cell.csv": _csv([header] + rows[:200] + [["0", "1", "2", "0", "1"]] + rows[200:]),
        "short_row.csv": _csv([header] + rows[:300] + [["0", "1", "0"]] + rows[300:]),
        "missing_column.csv": _csv([header[:2] + header[3:]] + [r[:2] + r[3:] for r in rows]),
    }


def run_all(checkout: Path) -> list[tuple]:
    """(exit code, stdout, stderr, --cohort-out bytes or None) of every
    command, run in order in one scratch directory that holds the
    fixtures, so `analyze` reads them and the CSVs that `simulate` wrote."""
    env = {k: v for k, v in os.environ.items() if k != "EVTV_SEED"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    results = []
    with tempfile.TemporaryDirectory() as work:
        for name, data in fixtures().items():
            (Path(work) / name).write_bytes(data)
        for command in COMMANDS:
            argv = command.split()
            proc = subprocess.run(
                [sys.executable, "-m", "evtv.cli", *argv],
                cwd=work, env=env, capture_output=True,
            )
            written = None
            if "--cohort-out" in argv:
                written = (Path(work) / argv[argv.index("--cohort-out") + 1]).read_bytes()
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
