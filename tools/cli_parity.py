"""Comparison of the evtv CLI between two checkouts, or against the
golden corpus in tests/golden/.

Runs a fixed list of commands, each in a fresh interpreter, against the
`src/` of a checkout and records exit code, stdout, stderr and the
sha256 of the `--cohort-out` CSV, argparse's version and usage-error text
included.  Fresh processes matter: a warning raised while a module is
first imported inside a command would add a stderr line that an
in-process test, with everything already loaded, cannot see.

The `analyze` commands cover both ways the cohort reader parses a body:
files in the writer's layout (`simulate --cohort-out`, n = 1000,
100,000 and 32,769, two subject blocks and one subject) and the FIXTURES
written here, which are not in that layout (CRLF, quoted and padded
cells, an extra column, a trailing empty line) or not valid.  One more
fixture, a 12-subject cohort, takes `analyze` through a usable point
estimate to a bootstrap that fails (exit 3).

    python3 tools/cli_parity.py OLD_CHECKOUT NEW_CHECKOUT [--rel-tol X]
    python3 tools/cli_parity.py --record CHECKOUT

The first form prints `same`, `same within X` or `DIFFERS in <fields>`
for each command and exits 0 when no command differs, 1 otherwise.
Without --rel-tol every byte must match; with it, the JSON of a
successful `simulate` or `analyze` may differ only in floats within X
(see `compare`).
The second form adds CHECKOUT's results of the commands that
tests/golden/ of the checkout holding this script does not hold yet, the
corpus `tests/test_golden_cli.py` compares against.  It runs every
command, as later ones read the CSVs earlier ones write, and leaves the
recorded entries as they are.  It exits 2 if the corpus's commands are
not the first commands of COMMANDS; to regenerate the whole corpus,
remove tests/golden/ and record again.
"""
from __future__ import annotations

import hashlib
import json
import math
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
    "analyze --input fragile.csv --bootstrap 200 --seed 1",
    "analyze --input trailing_blank.csv --bootstrap 0",
    # 2 * SUBJECT_BLOCK + 1 subjects: generation, CSV blocks and counts across block edges
    "simulate --n 32769 --bootstrap 0 --seed 5 --cohort-out edge.csv",
    "analyze --input edge.csv --bootstrap 0",
    # 1024 // 101 = 10 replications per group: groups of 10 and 2
    "simulate --reps 12 --n 200 --bootstrap 100 --seed 6",
    # saturated probabilities: P(A0 | u0 = 1) at logit -44.6 or less, P(Y | u1 = 1) at
    # logit 38.8 or more; 50 cohorts of 400 fill six 8-cohort passes and part of a seventh
    "simulate --reps 50 --n 400 --bootstrap 0 --seed 21 "
    "--param outcome_model=-0.5,1.0,1.2,0.7,0.8,0.4,-0.7,40 --param a0_model=-0.8,1.2,-45",
    # one cohort over three subject passes, with resamples of its cell ids
    "simulate --n 32769 --bootstrap 100 --seed 5",
]

FIELDS = ("exit code", "stdout", "stderr", "cohort CSV")

# commands whose successful stdout is a JSON document of fitted numbers
ESTIMATING = ("simulate", "analyze")

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"


def _csv(lines: list[list[str]], end: str = "\n") -> bytes:
    return (end.join(",".join(line) for line in lines) + end).encode("utf-8")


# cells (see _kernels.cell_ids) of a 12-subject cohort whose point
# estimate succeeds but most of whose bootstrap resamples fail (exit 3)
FRAGILE_CELLS = (1, 2, 11, 13, 14, 15, 15, 26, 28, 28, 29, 31)


def fixtures() -> dict[str, bytes]:
    """Cohort CSV files by name: 400 seeded coin-flip subjects written in
    ways the writer never uses, the first three valid, and the fragile
    cohort of FRAGILE_CELLS."""
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
        "trailing_blank.csv": _csv([header] + rows) + b"\n",
        "bad_cell.csv": _csv([header] + rows[:200] + [["0", "1", "2", "0", "1"]] + rows[200:]),
        "short_row.csv": _csv([header] + rows[:300] + [["0", "1", "0"]] + rows[300:]),
        "missing_column.csv": _csv([header[:2] + header[3:]] + [r[:2] + r[3:] for r in rows]),
        "fragile.csv": _csv([header] + [[str(c >> bit & 1) for bit in (4, 3, 2, 1, 0)]
                                        for c in FRAGILE_CELLS]),
    }


def run_all(checkout: Path) -> list[tuple]:
    """(exit code, stdout, stderr, sha256 hex of the --cohort-out CSV or
    None) of every command, run in order in one scratch directory that
    holds the fixtures, so `analyze` reads them and the CSVs that
    `simulate` wrote.  EVTV_SEED is unset, and so are COLUMNS and LINES,
    from which argparse would take the width it wraps usage text to."""
    env = {k: v for k, v in os.environ.items() if k not in ("EVTV_SEED", "COLUMNS", "LINES")}
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
                data = (Path(work) / argv[argv.index("--cohort-out") + 1]).read_bytes()
                written = hashlib.sha256(data).hexdigest()
            results.append((proc.returncode, proc.stdout, proc.stderr, written))
    return results


def _json_match(a, b, rel_tol: float) -> bool:
    # same keys in the same order, same types and non-float values, and
    # floats within rel_tol of each other
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_json_match(a[k], b[k], rel_tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_json_match(x, y, rel_tol) for x, y in zip(a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)
    return a == b


def compare(command: str, expected: tuple, got: tuple, rel_tol: float) -> list[str]:
    """FIELDS in which two results of `command` differ.  Every field must
    match byte for byte, except, when rel_tol > 0, the stdout of a
    `simulate` or `analyze` that exits 0 on both sides: that is parsed as
    JSON and must have the same keys in the same order, the same types
    and non-float values, and floats within rel_tol relative."""
    diff = [f for f, x, y in zip(FIELDS, expected, got) if x != y]
    if (rel_tol > 0.0 and diff == ["stdout"] and expected[0] == 0
            and command.split()[0] in ESTIMATING):
        try:
            docs = json.loads(expected[1]), json.loads(got[1])
        except ValueError:
            return diff
        if _json_match(*docs, rel_tol):
            return []
    return diff


def golden_index() -> list[dict]:
    """The golden corpus's index.json entries, [] without a corpus; a
    ValueError unless their commands are the first commands of COMMANDS."""
    path = GOLDEN / "index.json"
    index = json.loads(path.read_text()) if path.exists() else []
    if [entry["command"] for entry in index] != COMMANDS[:len(index)]:
        raise ValueError(f"{GOLDEN} lists commands that do not start COMMANDS; "
                         "remove it and rerun --record to regenerate it")
    return index


def write_golden(index: list[dict], results: list[tuple]) -> None:
    """Add the results of the COMMANDS after the corpus's index entries
    to the golden corpus: index.json holds each command with its exit
    code and CSV hash, NN.stdout and NN.stderr its output bytes."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for i in range(len(index), len(COMMANDS)):
        code, out, err, csv_hash = results[i]
        (GOLDEN / f"{i:02d}.stdout").write_bytes(out)
        (GOLDEN / f"{i:02d}.stderr").write_bytes(err)
        index.append({"command": COMMANDS[i], "exit": code, "cohort_sha256": csv_hash})
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=2) + "\n")


def read_golden() -> list[tuple]:
    """The golden results in the order of COMMANDS, which the corpus must list."""
    index = golden_index()
    if len(index) != len(COMMANDS):
        raise ValueError(f"{GOLDEN} does not hold the current COMMANDS; rerun --record")
    return [(entry["exit"], (GOLDEN / f"{i:02d}.stdout").read_bytes(),
             (GOLDEN / f"{i:02d}.stderr").read_bytes(), entry["cohort_sha256"])
            for i, entry in enumerate(index)]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--record":
        try:
            index = golden_index()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        recorded = len(index)
        write_golden(index, run_all(Path(argv[1])))
        print(f"recorded {len(COMMANDS) - recorded} of {len(COMMANDS)} commands")
        return 0
    rel_tol = 0.0
    if len(argv) == 4 and argv[2] == "--rel-tol":
        rel_tol = float(argv[3])
        argv = argv[:2]
    if len(argv) != 2 or not rel_tol >= 0.0:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (run_all(Path(a)) for a in argv)
    differs = 0
    for command, a, b in zip(COMMANDS, old, new):
        diff = compare(command, a, b, rel_tol)
        differs += bool(diff)
        verdict = ("same" if a == b else f"same within {rel_tol:g}" if not diff
                   else "DIFFERS in " + ", ".join(diff))
        print(f"{verdict}: {command} (exit {b[0]}, {len(b[1])} B stdout, {len(b[2])} B stderr)")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
