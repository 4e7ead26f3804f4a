"""Host speed probe: a fixed reference job, timed in the benchmark's own
processes next to the measured work, that turns wall times into
reference-speed seconds.

The 2-vCPU virtual machine the benchmark was built on switches between
speed regimes that last about a minute: the same `cohort_roundtrip` op took
1.2-1.5 s in one and 2.0-2.4 s in another, so ten runs of identical code
spread by 25-30% (IQR/median) depending on which regimes they met, and
longer runs did not average them out.  This job slows down with the
program: over a 5-minute recording that alternated the job with
`cohort_roundtrip` ops, their times correlated at 0.85, and scaling each
10-op median by the job's speed over the same ops cut the spread of those
medians from 0.24-0.31 to 0.10.

The job uses no evtv code, so a change to the program moves the scaled
times exactly as much as the wall times.  It mixes what the workloads do:
building many small Python objects, numpy passes over a 4 MB array and
small matrix products.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# A fixed scale: about the job's time on the box the benchmark was built
# on, so that scaled times read close to wall seconds there.
NOMINAL_S = 0.15


def job_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20260226)
    return rng.random(500_000), rng.random((1000, 4))


def reference_job_s(inputs: tuple[np.ndarray, np.ndarray]) -> float:
    """Wall seconds of one run of the fixed reference job."""
    big, small = inputs
    t0 = time.perf_counter()
    rows = [(i, i * 0.5, str(i)) for i in range(40_000)]
    sum(r[1] for r in rows)
    for _ in range(20):
        x = np.exp(big) * big
        x.sort()
    for _ in range(300):
        small.T @ small
    return time.perf_counter() - t0


def speed_factor(job_samples: list[float]) -> float:
    """Multiply a wall time by this to get reference-speed seconds."""
    return NOMINAL_S / statistics.median(job_samples)


class SpeedProbe:
    """Runs the reference job on request in a helper process of its own, so
    that the job's memory never counts in the measured process's peak RSS.
    The caller waits for each job, so the two never run at once."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    # helper process of SpeedProbe: one job per input line, after a warm-up
    job = job_inputs()
    reference_job_s(job)
    for _ in sys.stdin:
        print(repr(reference_job_s(job)), flush=True)
