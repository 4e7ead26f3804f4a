"""The cohort, the marginal risk ratio result, analyze_cohort and analyze_counts (behind
`evtv analyze` and `evtv simulate`) and cell_msm, which reads every estimate and its widened
bootstrap interval, each replication's too, from fitted count rows, for the two-timepoint design.

The estimand is the marginal risk ratio comparing always treated with
never treated, from a weighted marginal outcome model under stabilized
inverse-probability-of-treatment weights.  Weights stabilize with
marginal treatment models in the numerator and condition on measured
history in the denominator, so the estimate is unbiased only under no
unmeasured confounding; quantifying robustness to that assumption is the
job of the evalue module.

Every estimate comes from 32 binary-history cell counts (_kernels.rr_cells or its stages),
and one table, _FAILURES, turns a failed status into its error for every kind of estimate.
A subject's stabilized weight is its cell's entry of _kernels.weight_cells' sw (cohort_cells).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import _kernels, _rng
from ._kernels import SEPARATION_BOUND
from .errors import (
    BootstrapFailure,
    EstimationError,
    PositivityViolation,
    SingularDesign,
    WeightDiagnosticWarning,
    check_integer,
    check_size,
)
from .evalue import EffectEstimate, EValueReport, build_report

__all__ = [
    "Cohort",
    "MsmResult",
    "EstimationError",
    "SingularDesign",
    "PositivityViolation",
    "BootstrapFailure",
    "WeightDiagnosticWarning",
    "analyze_cohort",
]


@dataclass(frozen=True, eq=False)
class Cohort:
    """Observed histories, one entry per subject in each of five columns:
    baseline confounder and treatment, time-1 confounder and treatment,
    outcome.  The columns are checked once to be 1-D, of one nonzero length
    and binary, and stored as read-only uint8 copies; a column that is
    already uint8, read-only and owns its data is kept without a copy.  Such
    a column stays the caller's array, and read-only is only numpy's flag: a
    caller that sets its `writeable` flag back can change the cohort."""

    l0: np.ndarray
    a0: np.ndarray
    l1: np.ndarray
    a1: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            v = np.asarray(getattr(self, f.name))
            if v.ndim != 1 or v.shape != np.shape(self.l0):
                raise ValueError("cohort columns must be 1-D and of equal length")
            bad = np.flatnonzero(v > 1 if v.dtype == np.uint8 else (v != 0) & (v != 1))
            if bad.size:
                raise ValueError(f"{f.name} must be 0 or 1, got {v[bad[0]]} at row {bad[0]}")
            if v.dtype != np.uint8 or v.flags.writeable or not v.flags.owndata:
                v = v.astype(np.uint8)
                v.flags.writeable = False
            object.__setattr__(self, f.name, v)
        if not len(self):
            raise ValueError("cohort is empty")

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns in the order (l0, a0, l1, a1, y)."""
        return (self.l0, self.a0, self.l1, self.a1, self.y)


@dataclass(frozen=True)
class MsmResult:
    """Marginal risk ratio with its weight diagnostics and optional CI."""

    rr_obs: float
    p11: float
    p00: float
    weight_mean: float
    weight_max: float
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("p11", "p00"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v!r}")
        if abs(self.rr_obs - self.p11 / self.p00) > 1e-12 * self.rr_obs:
            raise ValueError("rr_obs does not equal p11/p00")
        if (self.ci_lower is None) != (self.ci_upper is None):
            raise ValueError("confidence interval needs both limits or neither")
        if self.ci_lower is not None and self.ci_lower > self.ci_upper:
            raise ValueError("ci_lower exceeds ci_upper")


# error class, name in failure counts and message of each failed _kernels.REP_* status
_FAILURES = {
    _kernels.REP_ARM_MISSING: (PositivityViolation, "arm missing",
                               "a treatment arm is empty at one time point"),
    _kernels.REP_POSITIVITY: (PositivityViolation, "positivity",
                              "a subject's fitted treatment probability is below "
                              f"{_kernels.POSITIVITY_FLOOR:.0e}"),
    _kernels.REP_SINGULAR: (SingularDesign, "singular", "design matrix is collinear"),
    _kernels.REP_SEPARATED: (EstimationError, "separated",
                             "separated fit: constant outcome or a coefficient beyond "
                             f"{SEPARATION_BOUND:g}; the risk ratio is not identified"),
    _kernels.REP_DEGENERATE: (EstimationError, "degenerate",
                              "degenerate fit: the outcome model reached a probability "
                              "boundary; the risk ratio is undefined"),
}


def cohort_cells(cohort: Cohort) -> np.ndarray:
    """Cell index 0..31 of each subject (see _kernels.cell_ids)."""
    return _kernels.cell_ids(*cohort.columns)


def cell_msm(counts: np.ndarray, fit: _kernels.CellFit, r: int, bootstrap: int) -> MsmResult:
    """MsmResult of row r of fit = _kernels.rr_cells(counts), with the percentile_ci
    of the next `bootstrap` rows if bootstrap > 0; raises the row's error if its
    estimate failed, then the interval's, and warns with WeightDiagnosticWarning
    if the mean stabilized weight lies outside [0.8, 1.2]."""
    failure = _FAILURES.get(int(fit.status[r]))
    if failure is not None:
        raise failure[0](failure[2])
    occupied = counts[r] > 0
    w = fit.sw[r][occupied]
    weight_mean = float(np.sum(counts[r][occupied] * w) / np.sum(counts[r]))
    if not 0.8 <= weight_mean <= 1.2:
        warnings.warn(
            f"mean stabilized weight {weight_mean:.3f} outside [0.8, 1.2]; "
            "check the treatment models",
            WeightDiagnosticWarning,
            stacklevel=2,
        )
    p11, p00 = float(fit.p11[r]), float(fit.p00[r])
    msm = MsmResult(p11 / p00, p11, p00, weight_mean, float(np.max(w)))
    if not bootstrap:
        return msm
    boot = slice(r + 1, r + 1 + bootstrap)
    lo, hi = percentile_ci(fit.rr[boot], fit.status[boot])
    # a percentile interval from a finite resample can exclude the
    # point estimate; widen to keep the report's CI well-formed
    return replace(msm, ci_lower=min(lo, msm.rr_obs), ci_upper=max(hi, msm.rr_obs))


# the bootstrap holds a few (replicates, 32) float arrays at once, ~51 MB
# each at the cap; a larger count fails with exit 2 instead of a MemoryError
MAX_BOOTSTRAP_REPLICATES = 200_000


def check_replicates(replicates: int) -> int:
    """A bootstrap replicate count as an int: 0, for no interval, or from 100
    to MAX_BOOTSTRAP_REPLICATES."""
    if check_integer(replicates, "replicates") == 0:
        return 0
    return check_size(replicates, "replicates", 100,
                      "MAX_BOOTSTRAP_REPLICATES", MAX_BOOTSTRAP_REPLICATES)


def count_rows(cells: np.ndarray, bootstrap: int, seed: int) -> np.ndarray:
    """The (1 + bootstrap, 32) cell counts that cell_msm reads: row 0 the cohort's,
    row 1 + r those of resample r, drawn from the stream (seed, bootstrap domain, r),
    whose generator is seeded from one _rng.states call for all the resamples."""
    bootstrap = check_replicates(bootstrap)
    seed = _rng.check_seed(seed)
    n = cells.shape[0]
    counts = np.empty((1 + bootstrap, _kernels.N_CELLS))
    counts[0] = _kernels.count_cells(cells)
    words = _rng.states([seed], _rng.BOOTSTRAP_DOMAIN, np.arange(bootstrap))[0]
    for r, w in enumerate(words):
        idx = _rng.generator(w).integers(0, n, size=n)
        counts[1 + r] = _kernels.count_cells(cells[idx])
    return counts


def percentile_ci(rr: np.ndarray, status: np.ndarray) -> tuple[float, float]:
    """2.5 and 97.5 percentiles of the replicates that did not fail; more
    than 10 percent failing raises BootstrapFailure, which counts the
    failures by reason."""
    kept = status == _kernels.REP_OK
    failures = status.shape[0] - int(kept.sum())
    if failures * 10 > status.shape[0]:
        tally = np.bincount(status, minlength=max(_FAILURES) + 1)
        by_reason = ", ".join(
            f"{name} {tally[code]}" for code, (_, name, _) in _FAILURES.items() if tally[code]
        )
        raise BootstrapFailure(
            f"{failures} of {status.shape[0]} bootstrap replicates failed ({by_reason}); "
            "the cohort is too fragile for resampling"
        )
    lo, hi = _percentiles(rr[kept], [2.5, 97.5])
    return float(lo), float(hi)


def _percentiles(x: np.ndarray, q) -> np.ndarray:
    # numpy's percentile by its default "linear" method (Hyndman & Fan's type 7),
    # bit for bit, from one sort: numpy's own goes through np.unique, which imports numpy.ma
    x = np.sort(x)
    v = (x.shape[0] - 1) * np.true_divide(q, 100)
    i = np.floor(v).astype(np.intp)
    j = np.minimum(i + 1, x.shape[0] - 1)  # j - 1 is i, or -1 (the last) when n = 1, as in numpy
    t = v - (j - 1)
    a, b = x[j - 1], x[j]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def analyze_cohort(
    cohort: Cohort, bootstrap: int, seed: int, *, curve_points: int = 0
) -> tuple[MsmResult, EValueReport]:
    """Estimate a cohort's risk ratio and derive its E-value report for the
    cohort's two time points.

    One rr_cells call fits the cohort's cell counts and those of `bootstrap`
    resamples (count_rows) under the same failure rules, read by cell_msm.
    Returns (msm, report).
    """
    return analyze_counts(count_rows(cohort_cells(cohort), bootstrap, seed), bootstrap,
                          curve_points)


def analyze_counts(counts: np.ndarray, bootstrap: int,
                   curve_points: int = 0) -> tuple[MsmResult, EValueReport]:
    """(msm, report) of count_rows' counts, by one rr_cells call and cell_msm:
    the tail of analyze_cohort and of a simulated cohort's estimate."""
    msm = cell_msm(counts, _kernels.rr_cells(counts), 0, bootstrap)
    estimate = EffectEstimate("rr", msm.rr_obs, msm.ci_lower, msm.ci_upper)
    return msm, build_report(estimate, 2, curve_points)
