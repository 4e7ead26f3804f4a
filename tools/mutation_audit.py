"""Mutation audit of evtv's status and boundary rules.

    python3 tools/mutation_audit.py [CHECKOUT]

MUTANTS is a fixed table of hand-made mutants, each one text replacement
(file, old text, new text, reason) in CHECKOUT (default: the checkout
holding this script).  For each mutant the tool copies the checkout to a
temporary directory, applies the replacement, runs the tier-1 suite there
with `-x` and prints `KILLED <first failing test>` or `SURVIVED`, then the
reason: what the mutant breaks or, for a survivor, why it is believed to
be equivalent on reachable inputs.  The table takes about five minutes on
two cores.

Every old text must occur exactly once in its file, checked for the whole
table before any mutant runs, so the table keeps up with the code; when one
does not, the tool names it and exits 2.  Tier-1 then runs once on an
unmutated copy: a failure there would be reported as every mutant KILLED,
so the tool names the failing test and exits 2.  Otherwise it exits 0,
whatever survived.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KERNELS, ESTIMATION = "src/evtv/_kernels.py", "src/evtv/estimation.py"
SIMULATION, REPORT = "src/evtv/simulation.py", "src/evtv/report.py"
ERRORS, RNG = "src/evtv/errors.py", "src/evtv/_rng.py"

MUTANTS = [
    (KERNELS, "ok &= ~(s <= 1e-10 *", "ok &= ~(s <= 1e-8 *",
     "Cholesky pivot test 1e-10 -> 1e-8: near-collinear designs flagged singular"),
    (KERNELS, "(lo < BOUNDARY_FLOOR) | (hi > 1.0 - BOUNDARY_FLOOR),", "lo < BOUNDARY_FLOOR,",
     "outcome model's upper probability boundary dropped from the degenerate rule"),
    (KERNELS, "accept = lp >= ref - 1e-12 * (1.0 + np.abs(ref))", "accept = lp >= ref",
     "step-halving's 1e-12 likelihood slack dropped"),
    (REPORT, "if grid.max() <= 1 and not grid[:, 1::2].any():", "if grid.max() <= 1:",
     "the reader's fast path skips its separator check, so \"-\" reads as \",\""),
    (ESTIMATION, "if failures * 10 > status.shape[0]:", "if failures * 10 >= status.shape[0]:",
     "bootstrap failure budget: exactly 10 percent failing raises"),
    (ESTIMATION, "if not 0.8 <= weight_mean <= 1.2:", "if not 0.8 <= weight_mean <= 1.25:",
     "weight warning's upper bound 1.2 -> 1.25"),
    (ESTIMATION, "weight_mean, float(np.max(w)))",
     "weight_mean, float(np.max(fit.sw[r][np.isfinite(fit.sw[r])])))",
     "weight_max over every finite cell weight, empty cells included"),
    (SIMULATION, "if failures * 10 > reps:", "if failures * 10 >= reps:",
     "replication failure budget: exactly 10 percent failing raises"),
    (SIMULATION, "msm = cell_msm(counts, fit, j * rows, bootstrap)",
     "msm = cell_msm(counts, fit, j, bootstrap)",
     "replication j of a group read at row j, not at its point row j * (1 + bootstrap)"),
    (SIMULATION, "if error is None:", "if True:",
     "a replication whose true risk ratio is undefined is estimated anyway, so a "
     "failed estimate replaces the truth's message"),
    (ESTIMATION, "counts[1 + r] = _kernels.count_cells(cells[idx])",
     "counts[r] = _kernels.count_cells(cells[idx])",
     "count_rows writes resample r at row r: resample 0 replaces the cohort's row"),
    (ERRORS, "if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
     "if isinstance(value, bool):",
     "the integer rule loses its non-Integral clause: int() truncates 2.9 and parses \"150\""),
    (SIMULATION, "hi = min(lo + k, n)", "hi = min(lo + k - 1, n)",
     "a cohort's pass ends one subject early: that subject's draws go to the next"),
    (SIMULATION, "if lo == 0:", "if lo < n:",
     "a cohort longer than a pass takes the next cohort's streams for each later pass, "
     "instead of keeping its own"),
    (SIMULATION, "for first in range(0, cohorts, per):",
     "for first in range(0, cohorts - cohorts % per, per):",
     "the last pass of stacked cohorts, holding fewer than the others, is not drawn"),
    (SIMULATION, "for ws in words[first:last]]", "for ws in words[:last - first]]",
     "a later pass seeds its cohorts from the first pass's rows of words: cohort "
     "first + j draws cohort j's streams"),
    (RNG, "return value ^ (value >> 16)", "return value ^ (value >> 15)",
     "the SeedSequence hashmix shifts by 15, not 16"),
    (RNG, "two = values >= 1 << 32", "two = values > 1 << 32",
     "2**32 enters the entropy as one 32-bit word, not two"),
    (SIMULATION, "a1_table.take(_key(a0, l1, u1))", "a1_table.take(_key(l1, a0, u1))",
     "the A1 table is read at a key with a0 and l1 swapped"),
    (SIMULATION, "np.count_nonzero(po[:, 0].reshape(g, m), axis=1)",
     "np.count_nonzero(po[:, 1].reshape(g, m), axis=1)",
     "a replication's never-treated outcomes are tallied from the (0, 1) regime's column"),
    (SIMULATION, "np.arange(0, po.size, 4) + _key(a0, a1)",
     "np.arange(0, po.size, 4) + _key(a1, a0)",
     "the received outcome is read at column 2 * a1 + a0, not 2 * a0 + a1"),
    (KERNELS, "for start in range(SUBJECT_BLOCK, cells.shape[0], SUBJECT_BLOCK):",
     "for start in range(SUBJECT_BLOCK, cells.shape[0] - cells.shape[0] % SUBJECT_BLOCK, "
     "SUBJECT_BLOCK):",
     "count_cells skips its last partial block of cell ids"),
    (KERNELS, "seen = (cl[:, ::2] > 0.0) | (cl[:, 1::2] > 0.0)",
     "seen = (cl[:, ::2] > 0.0) & (cl[:, 1::2] > 0.0)",
     "the positivity floor skips a treatment history with only one of its two cells occupied"),
    (ESTIMATION, "j = np.minimum(i + 1, x.shape[0] - 1)", "j = np.minimum(i, x.shape[0] - 1)",
     "the percentile's upper neighbour is its lower one: no interpolation"),
    (ESTIMATION, "v > 1 if v.dtype == np.uint8", "v > 2 if v.dtype == np.uint8",
     "a uint8 cohort column holding 2 passes the binary check"),
    # the three below leave every status and rr bit unchanged on the 63,710
    # rows of tools/rr_parity.py's sets
    (KERNELS, "for _ in range(30):", "for _ in range(20):",
     "probably equivalent: 30 -> 20 step halvings; fits on heavy-tailed rows do accept "
     "steps after 20-22 halvings, yet no row's status or rr changes"),
    (KERNELS, "floor < POSITIVITY_FLOOR,", "floor <= POSITIVITY_FLOOR,",
     "probably equivalent: positivity < -> <=; differs only on a fitted probability "
     "of exactly the float 1e-6"),
    (KERNELS, "> SEPARATION_BOUND for f in fits", ">= SEPARATION_BOUND for f in fits",
     "probably equivalent: treatment-model separation > -> >=; differs only on a "
     "coefficient of exactly 30.0"),
]

TIER1 = ["-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def check_table(checkout: Path) -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    bad = []
    for path, old, _, _ in MUTANTS:
        found = (checkout / path).read_text().count(old)
        if found != 1:
            bad.append(f"{path}: {old!r} occurs {found} times")
    return bad


def run_mutant(checkout: Path, path: str | None, old: str = "", new: str = "") -> str:
    """KILLED <first failing test> or SURVIVED for one mutant; path None
    runs the unmutated copy."""
    with tempfile.TemporaryDirectory() as work:
        copy = Path(work) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if path is not None:
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        run = subprocess.run([sys.executable, *TIER1], cwd=copy, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    if run.returncode == 0:
        return "SURVIVED"
    failed = [line.split(" ", 2)[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return f"KILLED {failed[0]}" if failed else f"KILLED (pytest exit {run.returncode})"


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    bad = check_table(checkout)
    if bad:
        print("stale mutant table:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    baseline = run_mutant(checkout, None)
    if baseline != "SURVIVED":
        print(f"tier-1 fails without a mutant: {baseline.replace('KILLED ', '')}",
              file=sys.stderr)
        return 2
    for k, (path, old, new, reason) in enumerate(MUTANTS, start=1):
        outcome = run_mutant(checkout, path, old, new)
        print(f"[{k}/{len(MUTANTS)}] {path}: {outcome}\n    {reason}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
