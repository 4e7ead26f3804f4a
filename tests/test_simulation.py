"""Tests for the generating process, oracle truths, and experiment driver."""
import math

import numpy as np
import pytest

from evtv import _rng, simulation
from evtv._kernels import REP_POSITIVITY, rr_cells
from evtv.estimation import EstimationError, analyze_cohort
from evtv.simulation import (
    REGIMES,
    GeneratedCohort,
    SimulationParams,
    generate_cohort,
    run_experiment,
    run_replications,
    true_rr_enumerate,
    true_rr_mc,
)

from _per_row import cohort_rows, per_row_rr

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
            assert r.seed == _rng.child_seed(7, _rng.REPLICATION_DOMAIN, i)
            msm = analyze_cohort(generate_cohort(p, r.seed).observed, bootstrap, r.seed)[0]
            assert (r.rr_obs, r.ci_lower, r.ci_upper, r.weight_mean) == (
                msm.rr_obs, msm.ci_lower, msm.ci_upper, msm.weight_mean)

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

    @pytest.mark.parametrize("bootstrap, batched_fits", [(0, 1), (100, 0)])
    def test_batched_fit_only_without_bootstrap(self, monkeypatch, bootstrap, batched_fits):
        # a bootstrapped replication's estimate comes from its own analyze_cohort call
        calls = []

        def counted_rr_cells(counts):
            if bootstrap:
                raise AssertionError("fitted the batch of a bootstrapped study")
            calls.append(counts.shape)
            return rr_cells(counts)

        monkeypatch.setattr(simulation, "rr_cells", counted_rr_cells)
        results = run_replications(SimulationParams(n=200), 11, 3, bootstrap)
        assert len(calls) == batched_fits
        assert all(r.error is None for r in results)

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
