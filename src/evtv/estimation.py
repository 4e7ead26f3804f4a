"""Treatment models, stabilized IPW weights, the weighted marginal outcome
model, and nonparametric bootstrap intervals for the two-timepoint design.

The estimand is the marginal risk ratio comparing always treated with
never treated.  Weights stabilize with marginal treatment models in the
numerator and condition on measured history in the denominator, so the
estimate is unbiased only under no unmeasured confounding; quantifying
robustness to that assumption is the job of the evalue module.

Every estimate comes from 32 binary-history cell counts (_kernels.rr_cells or its stages),
and one table, _FAILURES, turns a failed status into its error for every kind of estimate.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, _rng
from ._kernels import FIT_TOL, SEPARATION_BOUND

__all__ = [
    "CohortRecord",
    "FittedLogistic",
    "MsmResult",
    "EstimationError",
    "SingularDesign",
    "PositivityViolation",
    "BootstrapFailure",
    "SeparationWarning",
    "WeightDiagnosticWarning",
    "fit_logistic",
    "stabilized_weights",
    "fit_msm",
    "bootstrap_ci",
]


class EstimationError(Exception):
    """Base class for estimation failures."""


class SingularDesign(EstimationError):
    """Design matrix is collinear on the observed data."""


class PositivityViolation(EstimationError):
    """A treatment arm is empty or a fitted treatment probability is degenerate."""


class BootstrapFailure(EstimationError):
    """Too many bootstrap replicates failed to produce an estimate."""


class SeparationWarning(UserWarning):
    """The likelihood maximum lies at infinite coefficients."""


class WeightDiagnosticWarning(UserWarning):
    """Mean stabilized weight far from 1, suggesting model misspecification."""


@dataclass(frozen=True)
class CohortRecord:
    """One subject's observed history: baseline confounder and treatment,
    time-1 confounder and treatment, outcome.  All binary."""

    l0: int
    a0: int
    l1: int
    a1: int
    y: int

    def __post_init__(self) -> None:
        for name in ("l0", "a0", "l1", "a1", "y"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v!r}")


@dataclass(frozen=True)
class FittedLogistic:
    """Result of one logistic fit.  Coefficients are intercept first."""

    coefficients: tuple[float, ...]
    converged: bool
    iterations: int
    max_abs_gradient: float

    def __post_init__(self) -> None:
        if self.converged and not self.max_abs_gradient < FIT_TOL:
            raise ValueError(
                f"converged fit with gradient {self.max_abs_gradient} >= {FIT_TOL}"
            )


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


def cohort_arrays(
    cohort: Sequence[CohortRecord],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unpack records into float arrays (l0, a0, l1, a1, y)."""
    if len(cohort) == 0:
        raise ValueError("cohort is empty")
    out = np.empty((5, len(cohort)))
    for i, r in enumerate(cohort):
        out[0, i] = r.l0
        out[1, i] = r.a0
        out[2, i] = r.l1
        out[3, i] = r.a1
        out[4, i] = r.y
    return tuple(np.ascontiguousarray(row) for row in out)


def fit_logistic(
    design: np.ndarray,
    response: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> FittedLogistic:
    """Fit a weighted logistic regression by damped Newton iteration
    (_kernels.fit_batched on one weight row).

    Convergence means every component of the weighted score drops below
    1e-8 within 100 iterations; otherwise the best iterate is returned
    with converged False.  A collinear design raises SingularDesign.
    Separation (a constant response, or any coefficient beyond 30 on the
    logit scale) is reported as a SeparationWarning on the best iterate.
    """
    x = np.ascontiguousarray(design, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"design must be 2-dimensional, got shape {x.shape}")
    y = np.ascontiguousarray(response, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("response length must match design rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("response must be binary")
    if weights is None:
        w = np.ones(x.shape[0])
    else:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != y.shape:
            raise ValueError("weights length must match response")
        if not np.all(w >= 0.0):
            raise ValueError("weights must be nonnegative")

    constant_response = y.min() == y.max()
    if constant_response:
        warnings.warn(
            "response is constant; the likelihood maximum lies at infinity "
            "and the fit stops at the gradient tolerance",
            SeparationWarning,
            stacklevel=2,
        )
    beta, iterations, gmax, status = (v[0] for v in _kernels.fit_batched(x, y, w[None, :]))
    if status == _kernels.FIT_SINGULAR:
        raise SingularDesign("design matrix is collinear on the observed data")
    if not constant_response and np.max(np.abs(beta)) > SEPARATION_BOUND:
        warnings.warn(
            f"coefficient beyond {SEPARATION_BOUND} on the logit scale suggests "
            "separation; estimates are unreliable",
            SeparationWarning,
            stacklevel=2,
        )
    return FittedLogistic(
        coefficients=tuple(float(b) for b in beta),
        converged=status == _kernels.FIT_CONVERGED,
        iterations=int(iterations),
        max_abs_gradient=float(gmax),
    )


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


def _raise_failure(status: int) -> None:
    failure = _FAILURES.get(int(status))
    if failure is not None:
        raise failure[0](failure[2])


def _msm_result(status, p11, p00, weight_mean, weight_max) -> MsmResult:
    # one row of an estimate: its error if it failed, else its MsmResult
    _raise_failure(status)
    if not 0.8 <= weight_mean <= 1.2:
        warnings.warn(
            f"mean stabilized weight {weight_mean:.3f} outside [0.8, 1.2]; "
            "check the treatment models",
            WeightDiagnosticWarning,
            stacklevel=3,
        )
    p11, p00 = float(p11), float(p00)
    return MsmResult(p11 / p00, p11, p00, float(weight_mean), float(weight_max))


def cohort_cells(cohort: Sequence[CohortRecord]) -> np.ndarray:
    """Cell index 0..31 of each subject (see _kernels.cell_ids)."""
    return _kernels.cell_ids(*cohort_arrays(cohort))


def stabilized_weights(
    cohort: Sequence[CohortRecord],
    truncate_percentile: Optional[float] = None,
) -> np.ndarray:
    """Per-subject stabilized inverse-probability-of-treatment weights.

    The denominator models condition on measured history, P(A0 | L0) and
    P(A1 | A0, L0, L1); the numerators are the marginal P(A0) and the
    A0-conditional P(A1 | A0), which stabilizes the weights without
    reintroducing confounding.  The models are fitted on the cohort's 32
    cell counts (_kernels.weight_cells); each subject gets its cell's
    weight.  Weights are not truncated by default; pass
    truncate_percentile (between 50 and 100, e.g. 99) to clip both tails
    at the matching percentiles.
    """
    cells = cohort_cells(cohort)
    sw, status = _kernels.weight_cells(np.bincount(cells, minlength=_kernels.N_CELLS)[None, :])
    _raise_failure(status[0])
    sw = sw[0][cells]
    if truncate_percentile is not None:
        p = float(truncate_percentile)
        if not 50.0 < p < 100.0:
            raise ValueError(
                f"truncate_percentile must lie in (50, 100), got {truncate_percentile!r}"
            )
        lo, hi = np.percentile(sw, [100.0 - p, p])
        sw = np.clip(sw, lo, hi)
    return sw


def fit_msm(cohort: Sequence[CohortRecord], weights: np.ndarray) -> MsmResult:
    """Fit the weighted marginal outcome model and read off the risk ratio.

    The model is logit P(Y | A0, A1) = a + b*A0 + c*A1, fitted on the
    total weight of each of the 32 cells (_kernels.outcome_cells);
    always-treated and never-treated probabilities come from the fitted
    coefficients, and rr_obs is their ratio.  A mean weight outside
    [0.8, 1.2] triggers a diagnostic warning; a singular, separated or
    degenerate fit raises EstimationError.
    """
    cells = cohort_cells(cohort)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.shape != cells.shape:
        raise ValueError("weights length must match cohort size")
    if not np.all(w > 0.0):
        raise ValueError("stabilized weights must be positive")
    totals = np.bincount(cells, weights=w, minlength=_kernels.N_CELLS)
    p11, p00, status = _kernels.outcome_cells(totals[None, :])
    return _msm_result(status[0], p11[0], p00[0], w.mean(), w.max())


def cell_msm(counts: np.ndarray, fit: tuple, r: int) -> MsmResult:
    """MsmResult of row r of fit = _kernels.rr_cells(counts); raises the
    row's error if its estimate failed."""
    _, status, p11, p00, sw = fit
    occupied = counts[r] > 0
    w = sw[r][occupied]
    weight_mean = np.sum(counts[r][occupied] * w) / np.sum(counts[r])
    return _msm_result(status[r], p11[r], p00[r], weight_mean, np.max(w))


def resample_counts(cells: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    """Cell counts (replicates, 32) of bootstrap resamples, subjects drawn
    with replacement; replicate r draws from the stream (seed, bootstrap
    domain, r)."""
    reps = int(replicates)
    if reps < 100:
        raise ValueError(f"replicates must be >= 100, got {replicates!r}")
    seed = _rng.check_seed(seed)
    n = cells.shape[0]
    counts = np.empty((reps, _kernels.N_CELLS))
    for r in range(reps):
        idx = _rng.stream(seed, _rng.BOOTSTRAP_DOMAIN, r).integers(0, n, size=n)
        counts[r] = np.bincount(cells[idx], minlength=_kernels.N_CELLS)
    return counts


def percentile_ci(rr: np.ndarray, status: np.ndarray) -> tuple[float, float]:
    """2.5 and 97.5 percentiles of the replicates that did not fail; more
    than 10 percent failing raises BootstrapFailure, which counts the
    failures by reason."""
    kept = ~np.isin(status, tuple(_FAILURES))
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


def bootstrap_ci(
    cohort: Sequence[CohortRecord],
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the marginal risk ratio: one
    batched fit (_kernels.rr_cells) on the 32 cell counts of every
    resample (resample_counts); failed replicates are dropped, and more
    than 10 percent failing raises BootstrapFailure (percentile_ci)."""
    rr, status, *_ = _kernels.rr_cells(resample_counts(cohort_cells(cohort), replicates, seed))
    return percentile_ci(rr, status)
