"""Memory of the registry-scale path: every per-subject array is one byte
from generation to CSV and back, and the peak memory of each stage grows
by a bounded number of bytes per subject.

A stage's peak is its tracemalloc peak (numpy reports its array buffers
to tracemalloc) above the memory in use when it starts, divided by the
cohort size.  Each bound is the stage's measured peak at n = 200,000
with about 25% headroom.
"""
import tracemalloc

import numpy as np
import pytest

from evtv.estimation import analyze_cohort, cohort_cells
from evtv.report import _cohort_csv_blocks, read_cohort_csv
from evtv.simulation import SimulationParams, generate_cohort, run_experiment

N = 200_000
SEED = 3
# bytes per subject, from measured peaks of 18.2, 1.7, 17, 1.7 and 18.2; the
# cohort file's write and the cell counts hold block-long buffers, not n-long
PEAK_BOUNDS = {"generate_cohort": 23, "cohort_out": 2.1, "read_cohort_csv": 21,
               "analyze_cohort": 2.1, "run_experiment": 23}


def peak_per_subject(stage, n):
    """(stage(), its tracemalloc peak per subject of n)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / n


def write_cohort_out(cohort, path):
    """Write the cohort's CSV as `simulate --cohort-out` does."""
    with open(path, "wb") as fh:
        fh.writelines(_cohort_csv_blocks(cohort))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """(generated cohort, the cohort read back from its CSV, peak per
    subject of each stage) at N, after a run at n = 1000 has imported the
    modules that the stages load on first use."""
    path = tmp_path_factory.mktemp("memory") / "cohort.csv"
    for n in (1000, N):
        generated, gen = peak_per_subject(lambda: generate_cohort(SimulationParams(n=n), SEED), n)
        _, out = peak_per_subject(lambda: write_cohort_out(generated.observed, path), n)
        cohort, read = peak_per_subject(lambda: read_cohort_csv(str(path)), n)
        _, fit = peak_per_subject(lambda: analyze_cohort(cohort, 0, SEED), n)
        _, run = peak_per_subject(lambda: run_experiment(SimulationParams(n=n), SEED, 0), n)
    peaks = {"generate_cohort": gen, "cohort_out": out, "read_cohort_csv": read,
             "analyze_cohort": fit, "run_experiment": run}
    return generated, cohort, peaks


def test_per_subject_arrays_are_one_byte(pipeline):
    generated, cohort, _ = pipeline
    arrays = (*generated.observed.columns, *cohort.columns, cohort_cells(cohort),
              generated.u0, generated.u1, generated.potential_outcomes)
    assert [a.dtype for a in arrays] == [np.uint8] * len(arrays)
    assert all(np.array_equal(a, b) for a, b in zip(cohort.columns, generated.observed.columns))


@pytest.mark.parametrize("stage", PEAK_BOUNDS)
def test_peak_per_subject_bounded(pipeline, stage):
    peak = pipeline[2][stage]
    assert peak < PEAK_BOUNDS[stage], f"{stage} peaked at {peak:.1f} B per subject"
