"""Cohort generation from the fully specified two-timepoint process, exact
enumeration of the true risk ratio, and end-to-end replication experiments.

The generating process has a binary unmeasured confounder at each time
point feeding both treatment and outcome, and a measured intermediate
confounder that responds to earlier treatment.  Potential outcomes for
all four treatment regimes are drawn per subject, which makes the true
marginal risk ratio available by Monte Carlo; an exact enumeration over
confounder configurations provides the oracle to validate against.

Two conventions exist for the intermediate confounder under a forced
treatment regime, and they genuinely differ whenever treatment affects
it.  Generated potential outcomes reuse the subject's realized L1,
which was drawn conditional on the treatment actually received; the
enumeration oracle defaults to integrating L1 over its distribution
under the regime's first treatment, the quantity the IPW estimator
targets.  Both are exposed and reported side by side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Literal, Optional, Sequence

import numpy as np

from . import _rng
from ._kernels import N_CELLS, expit, rr_cells
from .estimation import (
    CohortRecord,
    EstimationError,
    MsmResult,
    bootstrap_ci,
    cell_msm,
    cohort_cells,
    percentile_ci,
    resample_counts,
)
from .evalue import EffectEstimate, EValueReport, build_report

__all__ = [
    "SimulationParams",
    "GeneratedCohort",
    "ExperimentRecord",
    "ReplicationResult",
    "generate_cohort",
    "true_rr_mc",
    "true_rr_enumerate",
    "analyze_cohort",
    "run_experiment",
    "run_replications",
]

# column order of the potential-outcome matrix: regimes (a0, a1)
REGIMES = ((0, 0), (0, 1), (1, 0), (1, 1))

L1Source = Literal["intervened", "observed"]

# stream tags within the cohort domain, one per simulated variable
_TAG_U0, _TAG_L0, _TAG_A0, _TAG_U1, _TAG_L1, _TAG_A1 = range(6)
_TAG_PO = 6  # tags 6..9 hold the four potential-outcome draws


@dataclass(frozen=True)
class SimulationParams:
    """Every coefficient of the generating process.

    Model tuples are intercept first: a0_model over (1, L0, U0), l1_model
    over (1, A0, L0), a1_model over (1, A0, L1, U1), and outcome_model
    over (1, a0, a1, L0, L1, L0*L1, U0, U1).  The time-1 treatment model
    deliberately conditions on (A0, L1, U1) only.
    """

    p_u0: float = 0.4
    p_l0: float = 0.65
    p_u1: float = 0.7
    a0_model: tuple[float, float, float] = (-0.8, 1.2, 1.0)
    l1_model: tuple[float, float, float] = (-0.2, 0.8, 0.9)
    a1_model: tuple[float, float, float, float] = (-1.2, 1.0, 1.2, 0.8)
    outcome_model: tuple[float, ...] = (-0.5, 1.0, 1.2, 0.7, 0.8, 0.4, -0.7, -0.8)
    n: int = 1000

    def __post_init__(self) -> None:
        for name in ("p_u0", "p_l0", "p_u1"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v!r}")
        for name, width in (
            ("a0_model", 3),
            ("l1_model", 3),
            ("a1_model", 4),
            ("outcome_model", 8),
        ):
            coefs = tuple(float(c) for c in getattr(self, name))
            if len(coefs) != width:
                raise ValueError(f"{name} needs {width} coefficients, got {len(coefs)}")
            object.__setattr__(self, name, coefs)
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def outcome_logit(self, a0, a1, l0, l1, u0, u1):
        m = self.outcome_model
        return (
            m[0]
            + m[1] * a0
            + m[2] * a1
            + m[3] * l0
            + m[4] * l1
            + m[5] * l0 * l1
            + m[6] * u0
            + m[7] * u1
        )


@dataclass(frozen=True, eq=False)
class GeneratedCohort:
    """A simulated cohort with its unmeasured confounders and all four
    potential outcomes retained for oracle checks.

    potential_outcomes has one row per subject and one column per regime
    in REGIMES order.  The observed outcome of every record equals the
    potential outcome of the treatments actually received.
    """

    records: tuple[CohortRecord, ...]
    u0: np.ndarray
    u1: np.ndarray
    potential_outcomes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.records)
        po = self.potential_outcomes
        if po.shape != (n, 4) or self.u0.shape != (n,) or self.u1.shape != (n,):
            raise ValueError("cohort arrays do not match the record count")
        for i, r in enumerate(self.records):
            if r.y != po[i, 2 * r.a0 + r.a1]:
                raise ValueError(
                    f"record {i} violates consistency: observed outcome differs "
                    "from the potential outcome of the received treatments"
                )

    def regime_outcomes(self, a0: int, a1: int) -> np.ndarray:
        return self.potential_outcomes[:, 2 * a0 + a1]


def generate_cohort(params: SimulationParams, seed: int) -> GeneratedCohort:
    """Draw one cohort of params.n subjects, deterministic given seed.

    Variables are drawn in temporal order, each from its own stream (see
    _rng), by comparing subject-level uniforms against the model
    probabilities.  Each regime's potential outcome uses an independent
    uniform draw; the draws share no coupling across regimes beyond the
    common confounders.
    """
    seed = _rng.check_seed(seed)
    n = params.n

    def draws(tag: int) -> np.ndarray:
        return _rng.stream(seed, _rng.COHORT_DOMAIN, tag).random(n)

    u0 = (draws(_TAG_U0) < params.p_u0).astype(np.int64)
    l0 = (draws(_TAG_L0) < params.p_l0).astype(np.int64)
    c = params.a0_model
    a0 = (draws(_TAG_A0) < expit(c[0] + c[1] * l0 + c[2] * u0)).astype(np.int64)
    u1 = (draws(_TAG_U1) < params.p_u1).astype(np.int64)
    c = params.l1_model
    l1 = (draws(_TAG_L1) < expit(c[0] + c[1] * a0 + c[2] * l0)).astype(np.int64)
    c = params.a1_model
    a1 = (draws(_TAG_A1) < expit(c[0] + c[1] * a0 + c[2] * l1 + c[3] * u1)).astype(np.int64)

    po = np.empty((n, 4), dtype=np.int64)
    for j, (ra0, ra1) in enumerate(REGIMES):
        p = expit(params.outcome_logit(ra0, ra1, l0, l1, u0, u1))
        po[:, j] = draws(_TAG_PO + j) < p
    y = po[np.arange(n), 2 * a0 + a1]

    records = tuple(
        CohortRecord(int(l0[i]), int(a0[i]), int(l1[i]), int(a1[i]), int(y[i]))
        for i in range(n)
    )
    return GeneratedCohort(records=records, u0=u0, u1=u1, potential_outcomes=po)


def true_rr_mc(cohort: GeneratedCohort) -> float:
    """Monte Carlo true risk ratio: mean always-treated outcome over mean
    never-treated outcome, across the cohort's potential outcomes."""
    m11 = float(cohort.regime_outcomes(1, 1).mean())
    m00 = float(cohort.regime_outcomes(0, 0).mean())
    if m00 == 0.0:
        raise ValueError(
            "no events under the never-treated regime; the risk ratio is undefined"
        )
    return m11 / m00


def _bern(p: float, v: int) -> float:
    return p if v == 1 else 1.0 - p


def _regime_mean(params: SimulationParams, a0: int, a1: int, l1_source: L1Source) -> float:
    """Exact P(outcome) under a forced regime, by enumeration.

    With l1_source "intervened", L1 follows its model under the regime's
    first treatment (16 confounder configurations).  With "observed", L1
    keeps the distribution induced by the observational first treatment,
    which is additionally integrated out (32 configurations); this
    matches how generated potential outcomes are drawn.
    """
    al = params.a0_model
    dl = params.l1_model
    total = 0.0
    for u0, l0, u1, l1 in product((0, 1), repeat=4):
        base = _bern(params.p_u0, u0) * _bern(params.p_l0, l0) * _bern(params.p_u1, u1)
        p_out = 1.0 / (1.0 + math.exp(-params.outcome_logit(a0, a1, l0, l1, u0, u1)))
        if l1_source == "intervened":
            p_l1 = 1.0 / (1.0 + math.exp(-(dl[0] + dl[1] * a0 + dl[2] * l0)))
            total += base * _bern(p_l1, l1) * p_out
        else:
            for a0_obs in (0, 1):
                p_a0 = 1.0 / (1.0 + math.exp(-(al[0] + al[1] * l0 + al[2] * u0)))
                p_l1 = 1.0 / (1.0 + math.exp(-(dl[0] + dl[1] * a0_obs + dl[2] * l0)))
                total += base * _bern(p_a0, a0_obs) * _bern(p_l1, l1) * p_out
    return total


def true_rr_enumerate(
    params: SimulationParams, l1_source: L1Source = "intervened"
) -> float:
    """Exact true risk ratio of always treated versus never treated.

    The default integrates the intermediate confounder over its
    distribution under each forced regime, which is the estimand the IPW
    estimator is consistent for.  l1_source "observed" instead keeps the
    observational L1 distribution, matching true_rr_mc; the two differ
    whenever treatment affects L1, and their gap is a useful diagnostic.
    A model logit beyond about -709, where math.exp overflows, raises
    ValueError.
    """
    if l1_source not in ("intervened", "observed"):
        raise ValueError(
            f"l1_source must be 'intervened' or 'observed', got {l1_source!r}"
        )
    try:
        return _regime_mean(params, 1, 1, l1_source) / _regime_mean(params, 0, 0, l1_source)
    except OverflowError:
        raise ValueError(
            "a model coefficient is too large to enumerate the true risk ratio"
        ) from None


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """One full pipeline run: generation, truth, estimation, E-values."""

    params: SimulationParams
    seed: int
    cohort: GeneratedCohort
    true_rr_mc: float
    true_rr_enumerated: float
    true_rr_enumerated_observed_l1: float
    msm: MsmResult
    report: EValueReport


def analyze_cohort(
    records: Sequence[CohortRecord],
    bootstrap: int,
    seed: int,
    timepoints: int = 2,
    curve_points: int = 0,
) -> tuple[MsmResult, EValueReport]:
    """Estimate a cohort's risk ratio and derive its E-value report.

    One rr_cells call fits the cohort's cell counts (row 0) and those of
    `bootstrap` resamples (resample_counts) under the same failure rules.
    Returns (msm, report).
    """
    cells = cohort_cells(records)
    counts = np.bincount(cells, minlength=N_CELLS)[None, :]
    if bootstrap:
        counts = np.vstack([counts, resample_counts(cells, bootstrap, seed)])
    fit = rr_cells(counts)
    msm = cell_msm(counts, fit, 0)
    if bootstrap:
        lo, hi = percentile_ci(fit[0][1:], fit[1][1:])
        # a percentile interval from a finite resample can exclude the
        # point estimate; widen to keep the report's CI well-formed
        msm = replace(msm, ci_lower=min(lo, msm.rr_obs), ci_upper=max(hi, msm.rr_obs))
    estimate = EffectEstimate("rr", msm.rr_obs, msm.ci_lower, msm.ci_upper)
    return msm, build_report(estimate, timepoints, curve_points)


def run_experiment(
    params: SimulationParams,
    seed: int,
    bootstrap_replicates: int = 1000,
) -> ExperimentRecord:
    """Generate a cohort, estimate the observational risk ratio from the
    measured columns only, and derive its E-value report.

    The unmeasured confounders never reach the estimator; they stay on
    the record for oracle comparisons.  bootstrap_replicates = 0 skips
    the interval.  Fully deterministic given (params, seed).
    """
    seed = _rng.check_seed(seed)
    if bootstrap_replicates < 0:
        raise ValueError("bootstrap_replicates must be >= 0")
    cohort = generate_cohort(params, seed)
    rr_true = true_rr_mc(cohort)
    msm, report = analyze_cohort(cohort.records, bootstrap_replicates, seed)
    return ExperimentRecord(
        params=params,
        seed=seed,
        cohort=cohort,
        true_rr_mc=rr_true,
        true_rr_enumerated=true_rr_enumerate(params),
        true_rr_enumerated_observed_l1=true_rr_enumerate(params, "observed"),
        msm=msm,
        report=report,
    )


@dataclass(frozen=True)
class ReplicationResult:
    """One replication's seed and headline numbers; error holds the
    failure message when the draw was degenerate or estimation broke
    down (true_rr_mc is then absent as well when undefined)."""

    seed: int
    true_rr_mc: Optional[float] = None
    rr_obs: Optional[float] = None
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    weight_mean: Optional[float] = None
    error: Optional[str] = None


def run_replications(
    params: SimulationParams,
    seed: int,
    replications: int,
    bootstrap_replicates: int = 0,
) -> list[ReplicationResult]:
    """Run independent replications of the whole experiment.

    Replication i derives its own cohort seed from (seed, replication
    domain, i), so the set of cohorts is deterministic and insensitive
    to execution order.  Degenerate draws and estimation failures are
    recorded per replication; more than 10 percent failing raises
    EstimationError.
    """
    seed = _rng.check_seed(seed)
    reps = int(replications)
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    # surface a bad bootstrap setting directly instead of letting it
    # masquerade as a failure of every replication
    if bootstrap_replicates and bootstrap_replicates < 100:
        raise ValueError(
            f"bootstrap_replicates must be 0 or >= 100, got {bootstrap_replicates!r}"
        )
    # keep each replication's cell counts, not its cohort; one rr_cells call fits them all
    seeds = [_rng.child_seed(seed, _rng.REPLICATION_DOMAIN, i) for i in range(reps)]
    counts = np.empty((reps, N_CELLS))
    drawn = []
    for i, child in enumerate(seeds):
        cohort = generate_cohort(params, child)
        counts[i] = np.bincount(cohort_cells(cohort.records), minlength=N_CELLS)
        rr_true, interval, error = None, (None, None), None
        try:
            rr_true = true_rr_mc(cohort)
            if bootstrap_replicates:
                interval = bootstrap_ci(cohort.records, bootstrap_replicates, child)
        except (EstimationError, ValueError) as exc:
            error = str(exc)
        drawn.append((rr_true, interval, error))
    del cohort  # keep the last cohort out of the batched fit's peak memory
    fit = rr_cells(counts)
    results: list[ReplicationResult] = []
    for i, (child, (rr_true, (lo, hi), error)) in enumerate(zip(seeds, drawn)):
        try:
            # an undefined truth comes first, then a failed point estimate
            msm = cell_msm(counts, fit, i) if rr_true is not None else None
        except EstimationError as exc:
            error = str(exc)
        if error is not None:
            results.append(ReplicationResult(seed=child, true_rr_mc=rr_true, error=error))
            continue
        results.append(ReplicationResult(
            seed=child, true_rr_mc=rr_true, rr_obs=msm.rr_obs,
            ci_lower=lo, ci_upper=hi, weight_mean=msm.weight_mean,
        ))
    failures = sum(r.error is not None for r in results)
    if failures * 10 > reps:
        raise EstimationError(f"{failures} of {reps} replications failed estimation")
    return results
