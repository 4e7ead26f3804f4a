"""Cohort generation from the fully specified two-timepoint process, exact
enumeration of the true risk ratio, and end-to-end replication experiments
whose estimates and intervals come from estimation.analyze_cohort.

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
from dataclasses import dataclass
from itertools import product
from typing import Literal, Optional

import numpy as np

from . import _kernels, _rng
from ._kernels import N_CELLS, count_cells, expit, rr_cells
from .errors import check_size
from .estimation import (
    Cohort,
    EstimationError,
    MsmResult,
    analyze_cohort,
    cell_msm,
    check_replicates,
    cohort_cells,
)
from .evalue import EValueReport

__all__ = [
    "SimulationParams",
    "GeneratedCohort",
    "ExperimentRecord",
    "ReplicationResult",
    "generate_cohort",
    "true_rr_mc",
    "true_rr_enumerate",
    "run_experiment",
    "run_replications",
]

# column order of the potential-outcome matrix: regimes (a0, a1)
REGIMES = ((0, 0), (0, 1), (1, 0), (1, 1))

L1Source = Literal["intervened", "observed"]

# stream tags within the cohort domain, one per simulated variable
_TAG_U0, _TAG_L0, _TAG_A0, _TAG_U1, _TAG_L1, _TAG_A1 = range(6)
_TAG_PO = 6  # tags 6..9 hold the four potential-outcome draws

# size caps, checked before allocating (exit 2, not a MemoryError).  A `simulate
# --cohort-out` process peaks ~18 B per subject above its n=1000 peak, 208 MiB at
# the cap (tools/peak_rss.py); a study's figure is tracemalloc's, scaled
MAX_COHORT_SIZE = 10_000_000
MAX_REPLICATIONS = 100_000  # ~2.3 KB per replication plus one cohort, ~230 MB


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
            if not all(math.isfinite(c) for c in coefs):
                raise ValueError(f"{name} coefficients must be finite, got {coefs!r}")
            object.__setattr__(self, name, coefs)
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        n = check_size(int(self.n), "n", 1, "MAX_COHORT_SIZE", MAX_COHORT_SIZE)
        object.__setattr__(self, "n", n)

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

    observed holds the measured columns; potential_outcomes has one row per
    subject and one column per regime in REGIMES order.  Every observed
    outcome equals the potential outcome of the treatments received.
    """

    observed: Cohort
    u0: np.ndarray
    u1: np.ndarray
    potential_outcomes: np.ndarray

    def __post_init__(self) -> None:
        o, po, n = self.observed, self.potential_outcomes, len(self.observed)
        if po.shape != (n, 4) or self.u0.shape != (n,) or self.u1.shape != (n,):
            raise ValueError("cohort arrays do not match the record count")
        bad = np.flatnonzero(o.y != _received(po, o.a0, o.a1))
        if bad.size:
            raise ValueError(
                f"record {bad[0]} violates consistency: observed outcome differs "
                "from the potential outcome of the received treatments"
            )

    def regime_outcomes(self, a0: int, a1: int) -> np.ndarray:
        return self.potential_outcomes[:, 2 * a0 + a1]


def _received(po: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    # each subject's potential outcome under the treatments it received,
    # po[i, 2 * a0[i] + a1[i]], chosen column by column without an index array
    return np.where(a0, np.where(a1, po[:, 3], po[:, 2]), np.where(a1, po[:, 1], po[:, 0]))


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
    streams = [_rng.stream(seed, _rng.COHORT_DOMAIN, tag) for tag in range(_TAG_PO + 4)]
    u0, l0, a0, u1, l1, a1 = (np.empty(n, dtype=np.uint8) for _ in range(6))
    po = np.empty((n, 4), dtype=np.uint8)
    # a logit below about -709 overflows exp to inf, and expit correctly
    # returns 0; the overflow is not worth a warning on stderr
    with np.errstate(over="ignore"):
        # the 0/1 columns are filled SUBJECT_BLOCK subjects at a time, each
        # probability computed before its uniforms are drawn, so at most
        # two block-long float arrays are alive at a time; a stream drawn
        # in pieces gives the draws of one call (_rng), so no bit changes
        for start in range(0, n, _kernels.SUBJECT_BLOCK):
            b = slice(start, min(start + _kernels.SUBJECT_BLOCK, n))
            k = b.stop - start
            u0[b] = streams[_TAG_U0].random(k) < params.p_u0
            l0[b] = streams[_TAG_L0].random(k) < params.p_l0
            c = params.a0_model
            a0[b] = expit(c[0] + c[1] * l0[b] + c[2] * u0[b]) > streams[_TAG_A0].random(k)
            u1[b] = streams[_TAG_U1].random(k) < params.p_u1
            c = params.l1_model
            l1[b] = expit(c[0] + c[1] * a0[b] + c[2] * l0[b]) > streams[_TAG_L1].random(k)
            c = params.a1_model
            p = expit(c[0] + c[1] * a0[b] + c[2] * l1[b] + c[3] * u1[b])
            a1[b] = p > streams[_TAG_A1].random(k)
            for j, (ra0, ra1) in enumerate(REGIMES):
                p = expit(params.outcome_logit(ra0, ra1, l0[b], l1[b], u0[b], u1[b]))
                po[b, j] = p > streams[_TAG_PO + j].random(k)
    observed = Cohort(l0, a0, l1, a1, _received(po, a0, a1))
    return GeneratedCohort(observed=observed, u0=u0, u1=u1, potential_outcomes=po)


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
    check_replicates(bootstrap_replicates)
    cohort = generate_cohort(params, seed)
    rr_true = true_rr_mc(cohort)
    msm, report = analyze_cohort(cohort.observed, bootstrap_replicates, seed)
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

    def __post_init__(self) -> None:
        # a failed replication has no estimate, so its document lists none
        if self.error is not None and (
            self.rr_obs, self.ci_lower, self.ci_upper, self.weight_mean
        ) != (None, None, None, None):
            raise ValueError("a failed replication carries no estimate")


def run_replications(
    params: SimulationParams,
    seed: int,
    replications: int,
    bootstrap_replicates: int = 0,
) -> list[ReplicationResult]:
    """Run independent replications of the whole experiment.

    Replication i derives its own cohort seed from (seed, replication
    domain, i), so the set of cohorts is deterministic and insensitive
    to execution order.  A bootstrapped replication's estimate and CI are
    analyze_cohort's, with its cohort seed.  Degenerate draws and estimation
    failures are recorded per replication; more than 10 percent failing
    raises EstimationError.
    """
    seed = _rng.check_seed(seed)
    reps = check_size(replications, "replications", 1, "MAX_REPLICATIONS", MAX_REPLICATIONS)
    # surface a bad bootstrap setting directly instead of letting it
    # masquerade as a failure of every replication
    bootstrap = check_replicates(bootstrap_replicates)
    # keep each replication's cell counts, not its cohort; unbootstrapped, one rr_cells fits all
    seeds = [_rng.child_seed(seed, _rng.REPLICATION_DOMAIN, i) for i in range(reps)]
    counts = np.empty((reps, N_CELLS))
    drawn = []
    for i, child in enumerate(seeds):
        cohort = generate_cohort(params, child)
        counts[i] = count_cells(cohort_cells(cohort.observed))
        rr_true, msm, error = None, None, None
        try:
            # an undefined truth comes first, then a failed point estimate, then the bootstrap
            rr_true = true_rr_mc(cohort)
            if bootstrap:
                msm = analyze_cohort(cohort.observed, bootstrap, child)[0]
        except (EstimationError, ValueError) as exc:
            error = str(exc)
        drawn.append((rr_true, msm, error))
    del cohort  # keep the last cohort out of the batched fit's peak memory
    fit = None if bootstrap else rr_cells(counts)
    results: list[ReplicationResult] = []
    for i, (child, (rr_true, msm, error)) in enumerate(zip(seeds, drawn)):
        if msm is None and error is None:
            try:
                msm = cell_msm(counts, fit, i)
            except EstimationError as exc:
                error = str(exc)
        if error is not None:
            results.append(ReplicationResult(seed=child, true_rr_mc=rr_true, error=error))
            continue
        results.append(ReplicationResult(
            seed=child, true_rr_mc=rr_true, rr_obs=msm.rr_obs,
            ci_lower=msm.ci_lower, ci_upper=msm.ci_upper, weight_mean=msm.weight_mean,
        ))
    failures = sum(r.error is not None for r in results)
    if failures * 10 > reps:
        raise EstimationError(f"{failures} of {reps} replications failed estimation")
    return results
