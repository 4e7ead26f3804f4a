"""Cohort generation from the fully specified two-timepoint process, exact
enumeration of the true risk ratio, and end-to-end replication experiments
whose estimates and intervals are read by estimation.cell_msm, as in analyze_cohort.

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
from ._kernels import N_CELLS, expit, rr_cells
from .errors import check_size
from .estimation import (
    Cohort,
    EstimationError,
    MsmResult,
    analyze_counts,
    cell_msm,
    check_replicates,
    count_rows,
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

# size caps, checked before allocating (exit 2, not a MemoryError).  Whole-process
# peaks (tools/peak_rss.py): `simulate --cohort-out` grows ~1.1 B per subject (its
# cell ids) above its n=1000 peak, 46 MiB at the cap; `simulate --reps` at n=200
# ~1.9 KB per replication (39.5 MiB at 1,000, 52.2 MiB at 8,000), ~220 MiB at the cap
MAX_COHORT_SIZE = 10_000_000
MAX_REPLICATIONS = 100_000


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
        n = check_size(self.n, "n", 1, "MAX_COHORT_SIZE", MAX_COHORT_SIZE)
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
        for lo in range(0, n, _kernels.SUBJECT_BLOCK):
            b = slice(lo, lo + _kernels.SUBJECT_BLOCK)
            bad = np.flatnonzero(o.y[b] != _received(po[b], o.a0[b], o.a1[b]))
            if bad.size:
                raise ValueError(
                    f"record {lo + bad[0]} violates consistency: observed outcome differs "
                    "from the potential outcome of the received treatments"
                )

    def regime_outcomes(self, a0: int, a1: int) -> np.ndarray:
        return self.potential_outcomes[:, 2 * a0 + a1]


def _key(*bits: np.ndarray) -> np.ndarray:
    # uint8 arrays of 0/1 values, most significant first, packed into one uint8
    # array: each subject's index into a table over those bits
    key = bits[0]
    for b in bits[1:]:
        key = key << 1
        key |= b
    return key


def _bits(width: int) -> list:
    # the inverse of _key over every key 0 .. 2**width - 1: one uint8 array per bit
    keys = np.arange(1 << width, dtype=np.uint8)
    return [(keys >> s) & 1 for s in range(width - 1, -1, -1)]


def _received(po: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    # each subject's potential outcome under the treatments it received,
    # po[i, 2 * a0[i] + a1[i]], in one take from the flattened rows
    return po.reshape(-1).take(np.arange(0, po.size, 4) + _key(a0, a1))


def _tables(params: SimulationParams) -> tuple:
    """P(A0 | l0, u0), P(L1 | a0, l0), P(A1 | a0, l1, u1) and the four
    regimes' P(Y | l0, l1, u0, u1), each indexed by _key of its bits in that
    order.  An entry is the model's logit expression and expit evaluated on
    uint8 arrays of the bits, the same float operations on the same dtypes
    as for one subject with those values; elementwise arithmetic and exp do
    not depend on the array around an element, so the entry has the bits of
    that subject's probability."""
    # a logit below about -709 overflows exp to inf, and expit correctly
    # returns 0; the overflow is not worth a warning on stderr
    with np.errstate(over="ignore"):
        l0, u0 = _bits(2)
        c = params.a0_model
        a0_table = expit(c[0] + c[1] * l0 + c[2] * u0)
        a0, l0 = _bits(2)
        c = params.l1_model
        l1_table = expit(c[0] + c[1] * a0 + c[2] * l0)
        a0, l1, u1 = _bits(3)
        c = params.a1_model
        a1_table = expit(c[0] + c[1] * a0 + c[2] * l1 + c[3] * u1)
        l0, l1, u0, u1 = _bits(4)
        y_tables = [expit(params.outcome_logit(ra0, ra1, l0, l1, u0, u1))
                    for ra0, ra1 in REGIMES]
    return a0_table, l1_table, a1_table, y_tables


def _uniforms(gens: list, m: int, tag: int) -> np.ndarray:
    # one variable's uniforms in a pass: m from stream `tag` of each cohort's streams, stacked
    u = np.empty(len(gens) * m)
    for j, streams in enumerate(gens):
        streams[tag].random(out=u[j * m:(j + 1) * m])
    return u


_PASS_COHORTS = 8  # whole cohorts in one pass, at most; their streams live for the pass


def _draw_cohorts(params: SimulationParams, seeds):
    """Draw one cohort of params.n subjects for each of `seeds`, stacked, in
    passes of at most SUBJECT_BLOCK subjects: up to _PASS_COHORTS whole
    cohorts, or the subjects [lo, hi) of one, which keeps its streams for its
    next pass.  Yields (first, last, lo, hi, cols) for cohorts first to last - 1,
    cols the uint8 (u0, l0, a0, u1, l1, a1, po, y) of the pass's subjects in
    buffers that every pass reuses from their start, so memory does not grow
    with n.  Cohort i's streams are (seeds[i], COHORT_DOMAIN, tag) for tags
    0-9, hashed for every cohort in one _rng.states call.  The probabilities
    come from _tables, built once per call: a pass packs each variable's parent
    bits into a uint8 key, gathers the key's probability with `take` and
    compares it with the stream's uniforms.  A stream drawn in pieces gives the
    draws of one call (_rng), so no bit depends on the passes.
    """
    n, cohorts = params.n, len(seeds)
    k = min(n, _kernels.SUBJECT_BLOCK)  # a cohort's subjects in one pass
    per = min(_PASS_COHORTS, _kernels.SUBJECT_BLOCK // k)  # cohorts in one pass
    out = _cohort_arrays(min(per, cohorts) * k)
    words = _rng.states(seeds, _rng.COHORT_DOMAIN, np.arange(_TAG_PO + 4))
    a0_table, l1_table, a1_table, y_tables = _tables(params)
    for first in range(0, cohorts, per):
        last = min(first + per, cohorts)
        for lo in range(0, n, k):
            hi = min(lo + k, n)
            m = hi - lo
            if lo == 0:
                gens = [[_rng.generator(w) for w in ws] for ws in words[first:last]]
            # [lo, hi) of one cohort, or [0, n) of each of last - first
            cols = u0, l0, a0, u1, l1, a1, po, y = [v[:(last - first) * m] for v in out]
            u0[:] = _uniforms(gens, m, _TAG_U0) < params.p_u0
            l0[:] = _uniforms(gens, m, _TAG_L0) < params.p_l0
            a0[:] = a0_table.take(_key(l0, u0)) > _uniforms(gens, m, _TAG_A0)
            u1[:] = _uniforms(gens, m, _TAG_U1) < params.p_u1
            l1[:] = l1_table.take(_key(a0, l0)) > _uniforms(gens, m, _TAG_L1)
            a1[:] = a1_table.take(_key(a0, l1, u1)) > _uniforms(gens, m, _TAG_A1)
            key = _key(l0, l1, u0, u1)
            for r, table in enumerate(y_tables):
                po[:, r] = table.take(key) > _uniforms(gens, m, _TAG_PO + r)
            y[:] = _received(po, a0, a1)
            yield first, last, lo, hi, cols


def _cohort_arrays(n: int) -> tuple:
    # uint8 (u0, l0, a0, u1, l1, a1, po, y) of n subjects, po (n, 4), as _draw_cohorts yields them
    return (*(np.empty(n, dtype=np.uint8) for _ in range(6)),
            np.empty((n, 4), dtype=np.uint8), np.empty(n, dtype=np.uint8))


def _generated(u0, l0, a0, u1, l1, a1, po, y) -> GeneratedCohort:
    columns = l0, a0, l1, a1, y
    for v in columns:  # read-only, so the Cohort keeps them without a copy
        v.flags.writeable = False
    return GeneratedCohort(observed=Cohort(*columns), u0=u0, u1=u1, potential_outcomes=po)


def generate_cohort(params: SimulationParams, seed: int) -> GeneratedCohort:
    """Draw one cohort of params.n subjects, deterministic given seed.

    Variables are drawn in temporal order, each from its own stream (see
    _rng), by comparing subject-level uniforms against the model
    probabilities.  Each regime's potential outcome uses an independent
    uniform draw; the draws share no coupling across regimes beyond the
    common confounders.
    """
    cohort = _cohort_arrays(params.n)
    _count_cohorts(params, [_rng.check_seed(seed)], 0, cohort)
    return _generated(*cohort)


def _true_rr(m11: float, m00: float) -> float:
    # the risk ratio of the always- and never-treated regimes' mean outcomes
    if m00 == 0.0:
        raise ValueError(
            "no events under the never-treated regime; the risk ratio is undefined"
        )
    return m11 / m00


def true_rr_mc(cohort: GeneratedCohort) -> float:
    """Monte Carlo true risk ratio: mean always-treated outcome over mean
    never-treated outcome, across the cohort's potential outcomes."""
    return _true_rr(float(cohort.regime_outcomes(1, 1).mean()),
                    float(cohort.regime_outcomes(0, 0).mean()))


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


def _count_cohorts(params: SimulationParams, seeds, bootstrap: int, out=None) -> tuple:
    """The pass loop behind every simulated cohort: (counts, events, cells) of
    the cohorts of `seeds`.  counts stacks each cohort's 1 + bootstrap count rows
    for cell_msm, resampled by count_rows with its seed once its cells are whole;
    events its never- and always-treated outcome tallies; cells the last cohort's
    uint8 cell ids if resampling or for one cohort not kept in `out`, else None.
    `out`, _cohort_arrays of one cohort, receives its columns pass by pass."""
    n, rows, cohorts = params.n, 1 + bootstrap, len(seeds)
    counts = np.zeros((cohorts * rows, N_CELLS))
    events = np.zeros((cohorts, 2), dtype=np.int64)
    whole = np.empty(n, dtype=np.uint8) if bootstrap or cohorts == 1 and out is None else None
    for first, last, lo, hi, cols in _draw_cohorts(params, seeds):
        _, l0, a0, _, l1, a1, po, y = cols
        g, m = last - first, hi - lo
        cells = _kernels.cell_ids(l0, a0, l1, a1, y)
        ids = cells.reshape(g, m) + np.arange(0, g * N_CELLS, N_CELLS)[:, None]
        counts[first * rows:last * rows:rows] += np.bincount(
            ids.ravel(), minlength=g * N_CELLS).reshape(g, N_CELLS)
        events[first:last, 0] += np.count_nonzero(po[:, 0].reshape(g, m), axis=1)
        events[first:last, 1] += np.count_nonzero(po[:, 3].reshape(g, m), axis=1)
        for v, c in zip(out or (), cols):
            v[lo:hi] = c
        if whole is not None:
            for j in range(first, last):
                whole[lo:hi] = cells[(j - first) * m:(j - first + 1) * m]
                if bootstrap and hi == n:
                    counts[j * rows:(j + 1) * rows] = count_rows(whole, bootstrap, int(seeds[j]))
    return counts, events, whole


def _experiment(params: SimulationParams, seed: int, bootstrap: int, out=None) -> tuple:
    """(checked seed, true_rr_mc, msm, report, cell ids) of the cohort of `seed`
    by _count_cohorts into `out`; an undefined truth raises before estimation."""
    seed = _rng.check_seed(seed)
    bootstrap = check_replicates(bootstrap)
    counts, events, cells = _count_cohorts(params, [seed], bootstrap, out)
    never, always = events[0].tolist()
    rr_true = _true_rr(always / params.n, never / params.n)
    return (seed, rr_true, *analyze_counts(counts, bootstrap), cells)


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
    cohort = _cohort_arrays(params.n)
    seed, rr_true, msm, report, _ = _experiment(params, seed, bootstrap_replicates, cohort)
    return ExperimentRecord(
        params=params,
        seed=seed,
        cohort=_generated(*cohort),
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
    to execution order.  A replication's estimate and CI are those of
    analyze_cohort with its cohort seed.  Degenerate draws and estimation
    failures are recorded per replication; more than 10 percent failing
    raises EstimationError.
    """
    seed = _rng.check_seed(seed)
    reps = check_size(replications, "replications", 1, "MAX_REPLICATIONS", MAX_REPLICATIONS)
    # a bad bootstrap setting is refused before any cohort is drawn
    bootstrap = check_replicates(bootstrap_replicates)
    # keep each replication's 1 + bootstrap count rows, not its cohort; one rr_cells per group
    n, rows = params.n, 1 + bootstrap
    group = max(1, _kernels.BLOCK_ROWS // rows)
    results: list[ReplicationResult] = []
    for start in range(0, reps, group):
        size = min(group, reps - start)
        children = _rng.child_seeds(seed, _rng.REPLICATION_DOMAIN, np.arange(start, start + size))
        counts, events, _ = _count_cohorts(params, children, bootstrap)
        fit = rr_cells(counts)
        for j, (never, always) in enumerate(events.tolist()):
            child, estimate = int(children[j]), ()
            # an undefined truth comes first and is never read, then the point estimate's error
            try:
                rr_true, error = _true_rr(always / n, never / n), None
            except ValueError as exc:
                rr_true, error = None, str(exc)
            if error is None:
                try:
                    msm = cell_msm(counts, fit, j * rows, bootstrap)
                    estimate = (msm.rr_obs, msm.ci_lower, msm.ci_upper, msm.weight_mean)
                except EstimationError as exc:
                    error = str(exc)
            results.append(ReplicationResult(child, rr_true, *estimate, error=error))
    failures = sum(r.error is not None for r in results)
    if failures * 10 > reps:
        raise EstimationError(f"{failures} of {reps} replications failed estimation")
    return results
