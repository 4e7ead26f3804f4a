"""The cohort, the marginal risk ratio result, and analyze_cohort, the one
fit -> bootstrap -> widen -> report driver behind `evtv analyze`, `evtv simulate`
and every bootstrapped replication, for the two-timepoint design.

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
    outcome.  The columns are stored as read-only uint8 copies, checked
    once to be 1-D, of one nonzero length and binary."""

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
            bad = np.flatnonzero((v != 0) & (v != 1))
            if bad.size:
                raise ValueError(f"{f.name} must be 0 or 1, got {v[bad[0]]} at row {bad[0]}")
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


def cell_msm(counts: np.ndarray, fit: _kernels.CellFit, r: int) -> MsmResult:
    """MsmResult of row r of fit = _kernels.rr_cells(counts); raises the
    row's error if its estimate failed, and warns with
    WeightDiagnosticWarning if the mean stabilized weight lies outside
    [0.8, 1.2]."""
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
    return MsmResult(p11 / p00, p11, p00, weight_mean, float(np.max(w)))


# the bootstrap holds a few (replicates, 32) float arrays at once, ~51 MB
# each at the cap; a larger count fails with exit 2 instead of a MemoryError
MAX_BOOTSTRAP_REPLICATES = 200_000


def check_replicates(replicates: int) -> int:
    """A bootstrap replicate count as an int: 0, for no interval, or from 100
    to MAX_BOOTSTRAP_REPLICATES."""
    if replicates == 0:
        return 0
    return check_size(replicates, "replicates", 100,
                      "MAX_BOOTSTRAP_REPLICATES", MAX_BOOTSTRAP_REPLICATES)


def resample_counts(cells: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    """Cell counts (replicates, 32) of bootstrap resamples, subjects drawn
    with replacement; replicate r draws from the stream (seed, bootstrap
    domain, r)."""
    reps = check_replicates(replicates)
    seed = _rng.check_seed(seed)
    n = cells.shape[0]
    counts = np.empty((reps, _kernels.N_CELLS))
    for r in range(reps):
        idx = _rng.stream(seed, _rng.BOOTSTRAP_DOMAIN, r).integers(0, n, size=n)
        counts[r] = _kernels.count_cells(cells[idx])
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
    lo, hi = np.percentile(rr[kept], [2.5, 97.5])
    return float(lo), float(hi)


def analyze_cohort(
    cohort: Cohort, bootstrap: int, seed: int, *, curve_points: int = 0
) -> tuple[MsmResult, EValueReport]:
    """Estimate a cohort's risk ratio and derive its E-value report for the
    cohort's two time points.

    One rr_cells call fits the cohort's cell counts (row 0) and those of
    `bootstrap` resamples (resample_counts) under the same failure rules.
    Returns (msm, report).
    """
    cells = cohort_cells(cohort)
    counts = _kernels.count_cells(cells)[None, :]
    if bootstrap:
        counts = np.vstack([counts, resample_counts(cells, bootstrap, seed)])
    fit = _kernels.rr_cells(counts)
    msm = cell_msm(counts, fit, 0)
    if bootstrap:
        lo, hi = percentile_ci(fit.rr[1:], fit.status[1:])
        # a percentile interval from a finite resample can exclude the
        # point estimate; widen to keep the report's CI well-formed
        msm = replace(msm, ci_lower=min(lo, msm.rr_obs), ci_upper=max(hi, msm.rr_obs))
    estimate = EffectEstimate("rr", msm.rr_obs, msm.ci_lower, msm.ci_upper)
    return msm, build_report(estimate, 2, curve_points)
