"""Tests for the generating process, oracle truths, and experiment driver."""
import contextlib
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtv import _kernels, _rng, simulation
from evtv._kernels import REP_POSITIVITY, rr_cells
from evtv.estimation import EstimationError, analyze_cohort
from evtv.simulation import (
    REGIMES,
    GeneratedCohort,
    ReplicationResult,
    SimulationParams,
    generate_cohort,
    run_experiment,
    run_replications,
    true_rr_enumerate,
    true_rr_mc,
)

from _per_row import child_seed, cohort_rows, per_row_rr, stream
from test_acceptance import ENUM_ZEROED_CONFOUNDING, ZEROED_PARAMS

# exact enumeration values for the default coefficients, computed with an
# independent script over all 64 binary histories and frozen here
ENUM_INTERVENED = 1.9233945494297771
ENUM_OBSERVED = 1.8140339423946537


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class TestSimulationParams:
    def test_defaults_are_valid(self):
        p = SimulationParams()
        assert p.n == 1000
        assert p.a0_model == (-0.8, 1.2, 1.0)
        assert p.outcome_model[1:3] == (1.0, 1.2)

    def test_probability_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                SimulationParams(p_u0=bad)

    def test_model_widths_enforced(self):
        with pytest.raises(ValueError):
            SimulationParams(a0_model=(0.1, 0.2))
        with pytest.raises(ValueError):
            SimulationParams(outcome_model=(0.0,) * 7)

    def test_model_coefficients_coerced_to_float(self):
        p = SimulationParams(a0_model=(0, 1, 2))
        assert p.a0_model == (0.0, 1.0, 2.0)
        assert all(isinstance(c, float) for c in p.a0_model)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            SimulationParams(n=0)
        with pytest.raises(ValueError):
            SimulationParams(n=2.5)
        with pytest.raises(ValueError):
            SimulationParams(n=True)


class TestGenerateCohort:
    def test_deterministic(self):
        p = SimulationParams(n=300)
        a = generate_cohort(p, 5)
        b = generate_cohort(p, 5)
        assert cohort_rows(a.observed) == cohort_rows(b.observed)
        assert np.array_equal(a.u0, b.u0)
        assert np.array_equal(a.potential_outcomes, b.potential_outcomes)

    def test_seed_changes_draws(self):
        p = SimulationParams(n=300)
        assert cohort_rows(generate_cohort(p, 5).observed) != cohort_rows(
            generate_cohort(p, 6).observed)

    def test_growing_n_preserves_prefix(self):
        # each variable draws from its own stream, so earlier subjects
        # are untouched when the cohort grows
        small = generate_cohort(SimulationParams(n=200), 9)
        large = generate_cohort(SimulationParams(n=500), 9)
        assert cohort_rows(large.observed)[:200] == cohort_rows(small.observed)
        assert np.array_equal(large.potential_outcomes[:200], small.potential_outcomes)

    def test_consistency_links_outcome_to_received_regime(self):
        cohort = generate_cohort(SimulationParams(n=400), 10)
        for i, (_, a0, _, a1, y) in enumerate(cohort_rows(cohort.observed)):
            j = REGIMES.index((a0, a1))
            assert y == cohort.potential_outcomes[i, j]

    def test_consistency_enforced_at_construction(self):
        cohort = generate_cohort(SimulationParams(n=10), 11)
        po = cohort.potential_outcomes.copy()
        _, a0, _, a1, y = cohort_rows(cohort.observed)[3]
        po[3, REGIMES.index((a0, a1))] = 1 - y
        with pytest.raises(ValueError, match="record 3 violates consistency"):
            GeneratedCohort(
                observed=cohort.observed,
                u0=cohort.u0,
                u1=cohort.u1,
                potential_outcomes=po,
            )

    def test_regime_outcomes_column_selection(self):
        cohort = generate_cohort(SimulationParams(n=50), 12)
        for j, (a0, a1) in enumerate(REGIMES):
            assert np.array_equal(
                cohort.regime_outcomes(a0, a1), cohort.potential_outcomes[:, j]
            )

    def test_marginals_track_parameters(self):
        p = SimulationParams(n=50_000, p_u0=0.25, p_l0=0.7)
        cohort = generate_cohort(p, 13)
        l0 = cohort.observed.l0
        assert abs(cohort.u0.mean() - 0.25) < 0.01
        assert abs(l0.mean() - 0.7) < 0.01


def reference_cohort(p: SimulationParams, seed: int) -> list[np.ndarray]:
    """(u0, l0, a0, u1, l1, a1, po, y) of the cohort of (p, seed), drawn
    without probability tables: every logit and expit evaluated on every
    subject, each stream drawn in one call, and the received outcome chosen
    by nested np.where."""
    n = p.n
    draw = [stream(seed, _rng.COHORT_DOMAIN, tag).random(n) for tag in range(10)]
    with np.errstate(over="ignore"):
        u0 = (draw[0] < p.p_u0).astype(np.uint8)
        l0 = (draw[1] < p.p_l0).astype(np.uint8)
        c = p.a0_model
        a0 = (_kernels.expit(c[0] + c[1] * l0 + c[2] * u0) > draw[2]).astype(np.uint8)
        u1 = (draw[3] < p.p_u1).astype(np.uint8)
        c = p.l1_model
        l1 = (_kernels.expit(c[0] + c[1] * a0 + c[2] * l0) > draw[4]).astype(np.uint8)
        c = p.a1_model
        a1 = (_kernels.expit(c[0] + c[1] * a0 + c[2] * l1 + c[3] * u1) > draw[5]).astype(np.uint8)
        po = np.empty((n, 4), dtype=np.uint8)
        for r, (ra0, ra1) in enumerate(REGIMES):
            po[:, r] = _kernels.expit(p.outcome_logit(ra0, ra1, l0, l1, u0, u1)) > draw[6 + r]
    y = np.where(a0, np.where(a1, po[:, 3], po[:, 2]), np.where(a1, po[:, 1], po[:, 0]))
    return [u0, l0, a0, u1, l1, a1, po, y]


# coefficients from everyday sizes to ones whose logits pass +-37, where expit
# rounds to 1 or nearly 0, and -709, where exp overflows and expit returns 0
SATURATING = st.one_of(st.floats(-3.0, 3.0), st.floats(-800.0, 800.0),
                       st.sampled_from([-750.0, -40.0, 37.5, 745.0]))


@st.composite
def saturating_params(draw, n):
    def coefs(k):
        return tuple(draw(SATURATING) for _ in range(k))

    prob = st.floats(0.01, 0.99)
    return SimulationParams(p_u0=draw(prob), p_l0=draw(prob), p_u1=draw(prob),
                            a0_model=coefs(3), l1_model=coefs(3), a1_model=coefs(4),
                            outcome_model=coefs(8), n=draw(n))


class TestProbabilityTables:
    """The generator's probability tables against per-subject expressions,
    over parameters that saturate and overflow expit."""

    @settings(max_examples=150, deadline=None)
    @given(p=saturating_params(st.one_of(st.sampled_from([1, 6, 7, 8, 14, 15]),
                                         st.integers(1, 30))),
           seed=st.integers(0, 2**64 - 1))
    # the largest one-word seed, then the two-word seeds at both ends
    @example(p=SimulationParams(n=15), seed=2**32 - 1)
    @example(p=SimulationParams(n=15), seed=2**32)
    @example(p=SimulationParams(n=15), seed=2**64 - 1)
    def test_generated_cohort_matches_per_subject_draws(self, p, seed):
        # passes of 7 subjects: n below, at and across the pass edge
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "SUBJECT_BLOCK", 7)
            cohort = generate_cohort(p, seed)
        got = [cohort.u0, cohort.observed.l0, cohort.observed.a0, cohort.u1,
               cohort.observed.l1, cohort.observed.a1, cohort.potential_outcomes,
               cohort.observed.y]
        for name, a, b in zip(("u0", "l0", "a0", "u1", "l1", "a1", "po", "y"),
                              got, reference_cohort(p, seed)):
            assert a.dtype == np.uint8 and np.array_equal(a, b), name

    @settings(max_examples=60, deadline=None)
    @given(p=saturating_params(st.integers(1, 60)), reps=st.integers(1, 20),
           block=st.sampled_from([7, 64, 480]), seed=st.integers(0, 2**64 - 1))
    def test_stacked_replications_match_per_subject_draws(self, p, reps, block, seed):
        # each replication's cell counts and regime means against its reference
        # cohort's: passes of up to 8 whole cohorts (n <= block // 8), of fewer,
        # or of part of one
        counts, means = [], []

        def recording_rr_cells(c):
            counts.append(c.copy())
            return rr_cells(c)

        def recording_true_rr(m11, m00):
            means.append((m11, m00))
            return true_rr(m11, m00)

        true_rr = simulation._true_rr
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "SUBJECT_BLOCK", block)
            mp.setattr(simulation, "rr_cells", recording_rr_cells)
            mp.setattr(simulation, "_true_rr", recording_true_rr)
            # the failure budget is not under test: a study over it raises
            # after every cohort is counted
            with contextlib.suppress(EstimationError):
                run_replications(p, seed, reps)
        expected_counts, expected_means = [], []
        for i in range(reps):
            _, l0, a0, _, l1, a1, po, y = reference_cohort(
                p, child_seed(seed, _rng.REPLICATION_DOMAIN, i))
            cells = _kernels.cell_ids(l0, a0, l1, a1, y)
            expected_counts.append(np.bincount(cells, minlength=_kernels.N_CELLS))
            expected_means.append((int(po[:, 3].sum()) / p.n, int(po[:, 0].sum()) / p.n))
        assert np.array_equal(np.concatenate(counts), expected_counts)
        assert means == expected_means


class TestTrueRrMc:
    def test_matches_potential_outcome_columns(self):
        cohort = generate_cohort(SimulationParams(n=800), 14)
        expected = cohort.potential_outcomes[:, 3].mean() / cohort.potential_outcomes[
            :, 0
        ].mean()
        assert true_rr_mc(cohort) == pytest.approx(expected, rel=1e-15)

    def test_no_baseline_events_rejected(self):
        # an intercept of -40 keeps every potential outcome at zero
        p = SimulationParams(n=20, outcome_model=(-40.0, 1, 1, 0, 0, 0, 0, 0))
        cohort = generate_cohort(p, 15)
        with pytest.raises(ValueError):
            true_rr_mc(cohort)


class TestTrueRrEnumerate:
    def test_frozen_default_values(self):
        assert rel(true_rr_enumerate(SimulationParams()), ENUM_INTERVENED) < 1e-12
        assert (
            rel(true_rr_enumerate(SimulationParams(), "observed"), ENUM_OBSERVED)
            < 1e-12
        )

    def test_conventions_differ_under_feedback(self):
        # the time-1 confounder responds to treatment, so holding its
        # distribution at the intervened regime shifts the truth upward
        p = SimulationParams()
        assert true_rr_enumerate(p) > true_rr_enumerate(p, "observed") + 0.05

    def test_closed_form_case_without_covariate_effects(self):
        # with every covariate coefficient zeroed the ratio collapses to
        # expit(intercept + both treatment effects) / expit(intercept)
        p = SimulationParams(outcome_model=(-0.5, 1.0, 1.2, 0, 0, 0, 0, 0))
        expected = (1 / (1 + math.exp(-1.7))) / (1 / (1 + math.exp(0.5)))
        assert rel(true_rr_enumerate(p), expected) < 1e-14
        assert rel(true_rr_enumerate(p, "observed"), expected) < 1e-14

    def test_null_treatment_effect(self):
        # zero treatment coefficients: the observed-history convention is
        # exactly null, while the intervened one keeps a residual
        # difference through the treatment-responsive confounder
        p = SimulationParams(outcome_model=(-0.5, 0.0, 0.0, 0.7, 0.8, 0.4, -0.7, -0.8))
        assert true_rr_enumerate(p, "observed") == pytest.approx(1.0, abs=1e-14)
        assert true_rr_enumerate(p) > 1.05

    def test_unknown_l1_source_rejected(self):
        with pytest.raises(ValueError):
            true_rr_enumerate(SimulationParams(), "counterfactual")

    @pytest.mark.parametrize("l1_source", ["intervened", "observed"])
    def test_overflowing_logit_rejected(self, l1_source):
        # math.exp(1e300) overflows; the CLI must see a ValueError (exit 2)
        with pytest.raises(ValueError, match="too large"):
            true_rr_enumerate(SimulationParams(l1_model=(-1e300, 0.0, 0.0)), l1_source)


def cell_probabilities(p: SimulationParams) -> np.ndarray:
    """(32,) probability of each cell (_kernels.cell_ids' bit order l0, a0, l1,
    a1, y), summed over the process's 128 (u0, l0, a0, u1, l1, a1, y) histories
    with math.exp scalars."""
    def bern(prob, v):
        return prob if v else 1.0 - prob

    def expit(x):
        return 1.0 / (1.0 + math.exp(-x))

    c0, d, c1 = p.a0_model, p.l1_model, p.a1_model
    probs = np.zeros(_kernels.N_CELLS)
    for u0, l0, a0, u1, l1, a1, y in product((0, 1), repeat=7):
        probs[l0 << 4 | a0 << 3 | l1 << 2 | a1 << 1 | y] += (
            bern(p.p_u0, u0) * bern(p.p_l0, l0) * bern(p.p_u1, u1)
            * bern(expit(c0[0] + c0[1] * l0 + c0[2] * u0), a0)
            * bern(expit(d[0] + d[1] * a0 + d[2] * l0), l1)
            * bern(expit(c1[0] + c1[1] * a0 + c1[2] * l1 + c1[3] * u1), a1)
            * bern(expit(p.outcome_logit(a0, a1, l0, l1, u0, u1)), y)
        )
    return probs


def ipw_regime_rr(probs: np.ndarray) -> float:
    """Always- over never-treated mean outcome, each the saturated regime mean
    of the cells weighted by probs times rr_cells' stabilized weights."""
    w = probs * rr_cells(probs[None, :] * 1e6).sw[0]
    cell = np.arange(_kernels.N_CELLS)
    a0, a1, y = cell >> 3 & 1, cell >> 1 & 1, cell & 1

    def mean(r0, r1):
        regime = (a0 == r0) & (a1 == r1)
        return w[regime & (y == 1)].sum() / w[regime].sum()

    return mean(1, 1) / mean(0, 0)


@st.composite
def unconfounded_params(draw):
    """Coefficients in [-2, 2] and probabilities in [0.05, 0.95], with every
    coefficient of the unmeasured confounders 0."""
    def coefs(k):
        return tuple(draw(st.floats(-2.0, 2.0)) for _ in range(k))

    prob = st.floats(0.05, 0.95)
    return SimulationParams(p_u0=draw(prob), p_l0=draw(prob), p_u1=draw(prob),
                            a0_model=(*coefs(2), 0.0), l1_model=coefs(3),
                            a1_model=(*coefs(3), 0.0), outcome_model=(*coefs(6), 0.0, 0.0))


class TestWeightsOracle:
    """Without unmeasured confounding the stabilized weights reweight the
    process's exact cell probabilities into the regime means that
    true_rr_enumerate integrates; no seed or sample is involved."""

    def test_cell_probabilities_sum_to_one(self):
        assert math.fsum(cell_probabilities(SimulationParams())) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_unconfounded_value(self):
        rr = ipw_regime_rr(cell_probabilities(ZEROED_PARAMS))
        assert rel(rr, ENUM_ZEROED_CONFOUNDING) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(p=unconfounded_params())
    def test_weights_reproduce_enumerated_truth(self, p):
        probs = cell_probabilities(p)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-14)
        assert rel(ipw_regime_rr(probs), true_rr_enumerate(p)) < 1e-12


class TestAnalyzeCohort:
    @pytest.mark.parametrize("n", [60, 1000, 100_000])
    def test_point_estimate_matches_per_row_reference(self, n):
        records = generate_cohort(SimulationParams(n=n), 7).observed
        msm = analyze_cohort(records, 0, 0)[0]
        rr, p11, p00 = per_row_rr(records)
        assert msm.rr_obs == pytest.approx(rr, rel=1e-12)
        assert msm.p11 == pytest.approx(p11, rel=1e-12)
        assert msm.p00 == pytest.approx(p00, rel=1e-12)


class TestRunExperiment:
    def test_record_is_internally_consistent(self):
        rec = run_experiment(SimulationParams(n=500), 3, bootstrap_replicates=0)
        assert rec.seed == 3
        assert rec.report.estimate.value == rec.msm.rr_obs
        assert rec.report.estimate.ci_lower is None
        assert rec.report.timepoints == 2
        assert rec.true_rr_enumerated == pytest.approx(ENUM_INTERVENED, rel=1e-12)
        assert rec.true_rr_enumerated_observed_l1 == pytest.approx(
            ENUM_OBSERVED, rel=1e-12
        )

    def test_bootstrap_interval_attached_and_bracketing(self):
        rec = run_experiment(SimulationParams(n=400), 4, bootstrap_replicates=200)
        assert rec.msm.ci_lower is not None
        assert rec.msm.ci_lower <= rec.msm.rr_obs <= rec.msm.ci_upper
        assert rec.report.estimate.ci_lower == rec.msm.ci_lower

    def test_deterministic_end_to_end(self):
        a = run_experiment(SimulationParams(n=400), 5, bootstrap_replicates=150)
        b = run_experiment(SimulationParams(n=400), 5, bootstrap_replicates=150)
        assert a.msm == b.msm
        assert cohort_rows(a.cohort.observed) == cohort_rows(b.cohort.observed)
        assert a.report == b.report

    def test_negative_bootstrap_rejected(self):
        with pytest.raises(ValueError, match="^replicates must be >= 100, got -1$"):
            run_experiment(SimulationParams(n=100), 6, bootstrap_replicates=-1)


class TestRunReplications:
    def test_results_are_deterministic_and_distinct(self):
        p = SimulationParams(n=200)
        a = run_replications(p, 7, 5)
        b = run_replications(p, 7, 5)
        assert [r.seed for r in a] == [r.seed for r in b]
        assert len({r.seed for r in a}) == 5
        assert [r.rr_obs for r in a] == [r.rr_obs for r in b]
        assert all(r.error is None for r in a)

    @pytest.mark.parametrize("bootstrap, n, reps", [(0, 1000, 20), (100, 300, 5)])
    def test_batch_matches_single_cohort_analysis(self, bootstrap, n, reps):
        # every replication reports what analyze_cohort reports for its cohort and seed
        p = SimulationParams(n=n)
        results = run_replications(p, 7, reps, bootstrap)
        for i, r in enumerate(results):
            assert r.seed == child_seed(7, _rng.REPLICATION_DOMAIN, i)
            cohort = generate_cohort(p, r.seed)
            msm = analyze_cohort(cohort.observed, bootstrap, r.seed)[0]
            assert (r.rr_obs, r.ci_lower, r.ci_upper, r.weight_mean) == (
                msm.rr_obs, msm.ci_lower, msm.ci_upper, msm.weight_mean)
            assert r.true_rr_mc == true_rr_mc(cohort)

    def test_master_seed_shifts_every_child(self):
        p = SimulationParams(n=200)
        a = {r.seed for r in run_replications(p, 7, 4)}
        b = {r.seed for r in run_replications(p, 8, 4)}
        assert a.isdisjoint(b)

    @pytest.mark.filterwarnings("ignore::evtv.estimation.WeightDiagnosticWarning")
    def test_widespread_failure_raises(self):
        # four subjects per cohort: treatment arms vanish constantly
        with pytest.raises(EstimationError):
            run_replications(SimulationParams(n=4), 9, 20)

    def test_replication_count_validated(self):
        with pytest.raises(ValueError, match="^replications must be >= 1, got 0$"):
            run_replications(SimulationParams(n=100), 10, 0)

    def test_negative_bootstrap_rejected(self):
        with pytest.raises(ValueError, match="^replicates must be >= 100, got -1$"):
            run_replications(SimulationParams(n=100), 10, 2, -1)

    @pytest.mark.parametrize("bootstrap", [0, 100])
    @pytest.mark.filterwarnings("ignore::evtv.estimation.WeightDiagnosticWarning")
    def test_group_size_leaves_results_unchanged(self, monkeypatch, bootstrap):
        # n=60, seed 5: replication 0 fails estimation, so failures cross groups too
        p = SimulationParams(n=60)
        whole = run_replications(p, 5, 10, bootstrap)
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        assert run_replications(p, 5, 10, bootstrap) == whole

    @pytest.mark.parametrize("block_rows, bootstrap, reps, rows", [
        (1024, 0, 3, [3]),
        (1024, 100, 3, [303]),
        (1024, 100, 12, [1010, 202]),
        (7, 0, 20, [7, 7, 6]),
        (7, 100, 3, [101, 101, 101]),
    ])
    def test_one_rr_cells_call_per_group(self, monkeypatch, block_rows, bootstrap, reps, rows):
        # a group holds BLOCK_ROWS // (1 + bootstrap) replications, at least one,
        # and each replication's point row is followed by its bootstrap rows
        calls = []

        def counted_rr_cells(counts):
            calls.append(counts.shape[0])
            return rr_cells(counts)

        monkeypatch.setattr(simulation, "rr_cells", counted_rr_cells)
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", block_rows)
        results = run_replications(SimulationParams(n=200), 11, reps, bootstrap)
        assert calls == rows
        assert all(r.error is None for r in results)

    @pytest.mark.parametrize("bootstrap", [0, 100])
    @pytest.mark.filterwarnings("ignore::evtv.estimation.WeightDiagnosticWarning")
    def test_undefined_truth_is_recorded_and_not_estimated(self, monkeypatch, bootstrap):
        # n=60, seed 5: replication 0's point estimate fails (degenerate fit), so
        # an estimate read despite its undefined truth would replace the truth's message
        p = SimulationParams(n=60)
        plain = run_replications(p, 5, 10, bootstrap)
        assert plain[0].error.startswith("degenerate fit")
        message = "no events under the never-treated regime; the risk ratio is undefined"

        true_rr = simulation._true_rr

        def run(undefined):
            # the truth raises for the replications numbered in `undefined`
            numbers = iter(range(10))

            def patched_true_rr(m11, m00):
                if next(numbers) in undefined:
                    raise ValueError(message)
                return true_rr(m11, m00)

            monkeypatch.setattr(simulation, "_true_rr", patched_true_rr)
            return run_replications(p, 5, 10, bootstrap)

        results = run({0})
        assert results[0] == ReplicationResult(seed=plain[0].seed, error=message)
        assert results[1:] == plain[1:]
        # replication 3's undefined truth is the study's second failure of 10
        with pytest.raises(EstimationError, match=r"^2 of 10 replications failed estimation$"):
            run({3})

    @pytest.mark.parametrize("bootstrap, reps", [(0, 70), (100, 12)])
    @pytest.mark.parametrize("n", [60, 120, 200, 410])
    @pytest.mark.filterwarnings("ignore::evtv.estimation.WeightDiagnosticWarning")
    def test_stacked_cohorts_match_single_cohorts(self, monkeypatch, bootstrap, reps, n):
        # passes of 200 subjects: three whole cohorts of 60 (replication 0 fails
        # estimation), one cohort below a pass, one filling it, and one over
        # three passes that keeps its streams; 70 replications take their 700
        # streams from one hash, 12 with a bootstrap cross a group
        monkeypatch.setattr(_kernels, "SUBJECT_BLOCK", 200)
        p = SimulationParams(n=n)
        for i, r in enumerate(run_replications(p, 5, reps, bootstrap)):
            child = child_seed(5, _rng.REPLICATION_DOMAIN, i)
            cohort = generate_cohort(p, child)
            truth = true_rr_mc(cohort)
            try:
                msm = analyze_cohort(cohort.observed, bootstrap, child)[0]
                expected = ReplicationResult(child, truth, msm.rr_obs, msm.ci_lower,
                                             msm.ci_upper, msm.weight_mean)
            except EstimationError as exc:
                expected = ReplicationResult(child, truth, error=str(exc))
            assert r == expected, i

    def test_failure_budget_is_ten_percent(self, monkeypatch):
        def run(failed):
            # the batched fit marks the first `failed` of 100 replications
            # as positivity failures
            def failing_rr_cells(counts):
                fit = rr_cells(counts)
                status = fit.status.copy()
                status[:failed] = REP_POSITIVITY
                return fit._replace(status=status)

            monkeypatch.setattr(simulation, "rr_cells", failing_rr_cells)
            return run_replications(SimulationParams(n=1000), 12, 100)

        results = run(10)
        assert len(results) == 100
        assert sum(r.error is not None for r in results) == 10
        with pytest.raises(EstimationError, match=r"^11 of 100 replications failed estimation$"):
            run(11)
