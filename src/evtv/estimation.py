"""Treatment models, stabilized IPW weights, the weighted marginal outcome
model, and nonparametric bootstrap intervals for the two-timepoint design.

The estimand is the marginal risk ratio comparing always treated with
never treated.  Weights stabilize with marginal treatment models in the
numerator and condition on measured history in the denominator, so the
estimate is unbiased only under no unmeasured confounding; quantifying
robustness to that assumption is the job of the evalue module.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, _rng
from ._kernels import FIT_MAX_ITER, FIT_TOL, SEPARATION_BOUND

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


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def fit_logistic(
    design: np.ndarray,
    response: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> FittedLogistic:
    """Fit a weighted logistic regression by damped Newton iteration.

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
    beta, iterations, gmax, status = _kernels.fit_logistic(x, y, w, FIT_TOL, FIT_MAX_ITER)
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


def _design(*columns: np.ndarray) -> np.ndarray:
    out = np.empty((columns[0].shape[0], len(columns)))
    for j, c in enumerate(columns):
        out[:, j] = c
    return out


def stabilized_weights(
    cohort: Sequence[CohortRecord],
    truncate_percentile: Optional[float] = None,
) -> np.ndarray:
    """Per-subject stabilized inverse-probability-of-treatment weights.

    The denominator models condition on measured history, P(A0 | L0) and
    P(A1 | A0, L0, L1); the numerators are the marginal P(A0) and the
    A0-conditional P(A1 | A0), which stabilizes the weights without
    reintroducing confounding.  Weights are not truncated by default;
    pass truncate_percentile (between 50 and 100, e.g. 99) to clip both
    tails at the matching percentiles.
    """
    l0, a0, l1, a1, _ = cohort_arrays(cohort)
    for label, arm in (("time 0", a0), ("time 1", a1)):
        if arm.min() == arm.max():
            raise PositivityViolation(
                f"only one treatment arm present at {label}; "
                "both arms are required at every time point"
            )
    ones = np.ones(l0.shape[0])
    d0 = fit_logistic(_design(ones, l0), a0)
    n0 = fit_logistic(_design(ones), a0)
    d1 = fit_logistic(_design(ones, a0, l0, l1), a1)
    n1 = fit_logistic(_design(ones, a0), a1)

    pd0 = _expit(_design(ones, l0) @ np.asarray(d0.coefficients))
    pn0 = _expit(_design(ones) @ np.asarray(n0.coefficients))
    pd1 = _expit(_design(ones, a0, l0, l1) @ np.asarray(d1.coefficients))
    pn1 = _expit(_design(ones, a0) @ np.asarray(n1.coefficients))
    pd0a = np.where(a0 == 1.0, pd0, 1.0 - pd0)
    pn0a = np.where(a0 == 1.0, pn0, 1.0 - pn0)
    pd1a = np.where(a1 == 1.0, pd1, 1.0 - pd1)
    pn1a = np.where(a1 == 1.0, pn1, 1.0 - pn1)
    floor = min(pd0a.min(), pd1a.min())
    if floor < _kernels.POSITIVITY_FLOOR:
        raise PositivityViolation(
            f"fitted treatment probability {floor:.2e} below "
            f"{_kernels.POSITIVITY_FLOOR:.0e}"
        )
    sw = (pn0a / pd0a) * (pn1a / pd1a)
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

    The model is logit P(Y | A0, A1) = a + b*A0 + c*A1 under the given
    weights; always-treated and never-treated probabilities come from
    the fitted coefficients, and rr_obs is their ratio.  A mean weight
    outside [0.8, 1.2] triggers a diagnostic warning; a fit driven to a
    probability boundary raises EstimationError.
    """
    l0, a0, l1, a1, y = cohort_arrays(cohort)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.shape != y.shape:
        raise ValueError("weights length must match cohort size")
    if not np.all(w > 0.0):
        raise ValueError("stabilized weights must be positive")
    ones = np.ones(y.shape[0])
    fit = fit_logistic(_design(ones, a0, a1), y, w)
    c = fit.coefficients
    p11 = float(_expit(np.asarray(c[0] + c[1] + c[2])))
    p00 = float(_expit(np.asarray(c[0])))
    floor = _kernels.BOUNDARY_FLOOR
    if min(p00, 1.0 - p00, p11, 1.0 - p11) < floor:
        raise EstimationError(
            "weighted outcome model collapsed to a probability boundary "
            f"(p00={p00:.3e}, p11={p11:.3e}); the marginal risk ratio is undefined"
        )
    weight_mean = float(w.mean())
    if not 0.8 <= weight_mean <= 1.2:
        warnings.warn(
            f"mean stabilized weight {weight_mean:.3f} outside [0.8, 1.2]; "
            "check the treatment models",
            WeightDiagnosticWarning,
            stacklevel=2,
        )
    return MsmResult(
        rr_obs=p11 / p00,
        p11=p11,
        p00=p00,
        weight_mean=weight_mean,
        weight_max=float(w.max()),
    )


def bootstrap_ci(
    cohort: Sequence[CohortRecord],
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the marginal risk ratio.

    Subjects are resampled with replacement.  Replicate r draws its
    indices from the stream (seed, bootstrap domain, r), so the interval
    is deterministic for fixed inputs.  The weight-and-fit pipeline
    depends on a cohort only through its 32 binary-history cell counts,
    so each replicate keeps just the counts of its resample and one
    batched fit (_kernels.rr_cells) estimates every replicate at once.
    Replicates that fail (positivity, separation, collinear or boundary
    fits) are dropped; more than 10 percent failing raises
    BootstrapFailure, whose message counts the failures by reason.
    """
    reps = int(replicates)
    if reps < 100:
        raise ValueError(f"replicates must be >= 100, got {replicates!r}")
    seed = _rng.check_seed(seed)
    cells = _kernels.cell_ids(*cohort_arrays(cohort))
    n = cells.shape[0]
    counts = np.empty((reps, _kernels.N_CELLS))
    for r in range(reps):
        idx = _rng.stream(seed, _rng.BOOTSTRAP_DOMAIN, r).integers(0, n, size=n)
        counts[r] = np.bincount(cells[idx], minlength=_kernels.N_CELLS)
    rr, status = _kernels.rr_cells(counts)
    kept = (status == _kernels.REP_OK) | (status == _kernels.REP_NOT_CONVERGED)
    failures = reps - int(kept.sum())
    if failures * 10 > reps:
        by_reason = ", ".join(
            f"{_kernels.REP_NAMES[code]} {k}"
            for code, k in enumerate(np.bincount(status, minlength=len(_kernels.REP_NAMES)))
            if k and code not in (_kernels.REP_OK, _kernels.REP_NOT_CONVERGED)
        )
        raise BootstrapFailure(
            f"{failures} of {reps} bootstrap replicates failed ({by_reason}); "
            "the cohort is too fragile for resampling"
        )
    values = np.sort(rr[kept])
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)
