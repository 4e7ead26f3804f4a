"""Risk-ratio and status parity of `_kernels.rr_cells` between two checkouts.

    python3 tools/rr_parity.py OLD_CHECKOUT NEW_CHECKOUT

Builds fixed, seeded sets of (R, 32) cell-count rows with NEW_CHECKOUT's
package, runs each checkout's `rr_cells` on them in its own interpreter,
and prints per set the (old, new) status flips, the largest relative rr
change among rows usable on both sides and how many rows moved by more
than 1e-9.  A row is usable iff its rr is finite, so two checkouts that
number their statuses differently still compare; a status code that
NEW_CHECKOUT does not name prints as a plain number.  The sets:

- bootstrap: the point estimate plus 300 resamples of each of nine
  generated cohorts (n 12-4000), and the point plus 1000 resamples
  (seed 3) of the n=1000, seed-7 cohort that `perfbench` analyzes;
- sparse: 40,000 rows, each cell 0 with probability 1/2, else 0-6;
- pareto and lognormal: 10,000 heavy-tailed rows each, which reach
  POSITIVITY and fits stopped at the iteration cap.

Exits 1 when a row is usable in one checkout and fails in the other,
0 otherwise.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COHORTS = ((12, 1), (14, 2), (18, 0), (24, 2), (30, 3), (50, 0), (200, 5), (1000, 7), (4000, 11))
REL_REPORT = 1e-9


def row_sets() -> dict[str, np.ndarray]:
    """The seeded count rows by set name; needs evtv importable."""
    from evtv.estimation import cohort_cells, resample_counts
    from evtv.simulation import SimulationParams, generate_cohort

    def point_and_resamples(n, seed, reps, boot_seed):
        cells = cohort_cells(generate_cohort(SimulationParams(n=n), seed).observed)
        point = np.bincount(cells, minlength=32).astype(np.float64)
        return np.vstack([point, resample_counts(cells, reps, boot_seed)])

    rng = np.random.default_rng(20261018)
    shape = (10_000, 32)
    return {
        "bootstrap": np.vstack([point_and_resamples(n, s, 300, s) for n, s in COHORTS]
                               + [point_and_resamples(1000, 7, 1000, 3)]),
        "sparse": (rng.integers(0, 7, (40_000, 32)) * (rng.random((40_000, 32)) < 0.5))
        .astype(np.float64),
        "pareto": np.floor(rng.pareto(0.5, shape)),
        "lognormal": np.floor(rng.lognormal(0.0, 4.0, shape)),
    }


def _fit(rows_path: str, out_path: str) -> None:
    # worker: rr_cells of every set, run on the evtv found on PYTHONPATH
    from evtv import _kernels

    with np.load(rows_path) as rows:
        fits = {}
        for name in rows.files:
            # by position, so that checkouts from before CellFit still compare
            fits[f"{name}.rr"], fits[f"{name}.status"] = _kernels.rr_cells(rows[name])[:2]
    np.savez(out_path, **fits)


def _run(checkout: Path, rows_path: str, out_path: str) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    subprocess.run([sys.executable, __file__, "--fit", rows_path, out_path], env=env, check=True)
    with np.load(out_path) as fits:
        return dict(fits)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--fit":
        _fit(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_checkout, new_checkout = (Path(a) for a in argv)
    sys.path.insert(0, str(new_checkout.resolve() / "src"))
    from evtv import _kernels

    names = {v: k[len("REP_"):] for k, v in vars(_kernels).items() if k.startswith("REP_")}
    sets = row_sets()
    with tempfile.TemporaryDirectory() as work:
        rows_path = os.path.join(work, "rows.npz")
        np.savez(rows_path, **sets)
        old = _run(old_checkout, rows_path, os.path.join(work, "old.npz"))
        new = _run(new_checkout, rows_path, os.path.join(work, "new.npz"))
    crossings = 0
    for name, rows in sets.items():
        s_old, s_new = old[f"{name}.status"], new[f"{name}.status"]
        ok_old, ok_new = np.isfinite(old[f"{name}.rr"]), np.isfinite(new[f"{name}.rr"])
        both = ok_old & ok_new
        rel = np.abs(new[f"{name}.rr"][both] / old[f"{name}.rr"][both] - 1.0)
        reached = ", ".join(f"{names[c]} {n}" for c, n in
                            zip(*np.unique(s_new, return_counts=True)))
        print(f"{name}: {rows.shape[0]} rows ({reached}); max relative rr change "
              f"{rel.max(initial=0.0):.3g}, {int((rel > REL_REPORT).sum())} above {REL_REPORT:g}")
        flipped = s_old != s_new
        pairs, counts = np.unique(np.column_stack([s_old[flipped], s_new[flipped]]),
                                  axis=0, return_counts=True)
        for (a, b), n in zip(pairs, counts):
            print(f"  flip {names.get(a, a)} -> {names.get(b, b)}: {n} rows")
        crossed = int(np.sum(ok_old != ok_new))
        crossings += crossed
        if crossed:
            print(f"  {crossed} rows usable on one side only (usable <-> failure)")
    return 1 if crossings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
