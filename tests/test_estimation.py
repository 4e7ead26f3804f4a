"""Tests for the weighting and MSM estimation layer."""
from dataclasses import replace

import numpy as np
import pytest

from evtv import _kernels
from evtv.estimation import (
    BootstrapFailure,
    CohortRecord,
    EstimationError,
    MsmResult,
    PositivityViolation,
    SeparationWarning,
    SingularDesign,
    WeightDiagnosticWarning,
    bootstrap_ci,
    cohort_arrays,
    fit_logistic,
    fit_msm,
    stabilized_weights,
)
from evtv.simulation import SimulationParams, analyze_cohort, generate_cohort

import _per_row


def random_cohort(n: int, seed: int) -> list[CohortRecord]:
    """Confounded two-timepoint cohort straight from the generating process."""
    return list(generate_cohort(SimulationParams(n=n), seed).records)


def coin_cohort(n: int, seed: int) -> list[CohortRecord]:
    """Cohort whose treatments are fair coins, independent of everything."""
    rng = np.random.default_rng(seed)
    l0 = rng.random(n) < 0.5
    a0 = rng.random(n) < 0.5
    l1 = rng.random(n) < 0.3 + 0.3 * l0
    a1 = rng.random(n) < 0.5
    y = rng.random(n) < 0.2 + 0.2 * a0 + 0.3 * a1
    return [
        CohortRecord(int(v), int(w), int(x), int(s), int(t))
        for v, w, x, s, t in zip(l0, a0, l1, a1, y)
    ]


class TestCohortRecord:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CohortRecord(0, 0, 2, 0, 0)
        with pytest.raises(ValueError):
            CohortRecord(0, 0, 0, 0, -1)

    def test_cohort_arrays_layout(self):
        records = [CohortRecord(1, 0, 1, 1, 0), CohortRecord(0, 1, 0, 0, 1)]
        l0, a0, l1, a1, y = cohort_arrays(records)
        assert l0.tolist() == [1.0, 0.0]
        assert a0.tolist() == [0.0, 1.0]
        assert y.tolist() == [0.0, 1.0]

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            cohort_arrays([])


class TestFitLogistic:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(1)
        n = 20_000
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        p = 1.0 / (1.0 + np.exp(-(0.3 - 1.1 * x[:, 1])))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(x, y)
        assert fit.converged
        assert fit.max_abs_gradient < 1e-8
        assert abs(fit.coefficients[0] - 0.3) < 0.1
        assert abs(fit.coefficients[1] + 1.1) < 0.1

    def test_singular_design_raises(self):
        rng = np.random.default_rng(2)
        n = 200
        z = rng.normal(size=n)
        x = np.column_stack([np.ones(n), z, -3.0 * z])
        y = (rng.random(n) < 0.5).astype(float)
        with pytest.raises(SingularDesign):
            fit_logistic(x, y)

    def test_constant_response_warns(self):
        n = 50
        x = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
        with pytest.warns(SeparationWarning):
            fit_logistic(x, np.ones(n))

    def test_separated_data_warns(self):
        xv = np.linspace(-2, 2, 100)
        x = np.column_stack([np.ones(100), xv])
        y = (xv > 0).astype(float)
        with pytest.warns(SeparationWarning):
            fit_logistic(x, y)

    @pytest.mark.filterwarnings("ignore::evtv.estimation.SeparationWarning")
    def test_matches_the_per_row_reference(self):
        # the batched engine on one weight row against the per-row loop in
        # tests/_per_row.py: same status and iteration count, coefficients
        # equal up to summation order
        rng = np.random.default_rng(30)
        for _ in range(300):
            n, d = int(rng.integers(20, 301)), int(rng.integers(1, 5))
            columns = [np.ones(n)]
            for _ in range(d - 1):
                columns.append(rng.normal(size=n) if rng.random() < 0.5
                               else rng.integers(0, 2, n).astype(float))
            if d > 2 and rng.random() < 0.1:
                columns[-1] = 2.0 * columns[1]  # collinear
            x = np.column_stack(columns)
            truth = 1.5 * rng.normal(size=d)
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ truth)))).astype(float)
            w = np.ones(n) if rng.random() < 0.5 else rng.integers(0, 5, n).astype(float)
            beta, iterations, _, status = _per_row.fit_logistic(
                x, y, w, _kernels.FIT_TOL, _kernels.FIT_MAX_ITER
            )
            if status == _kernels.FIT_SINGULAR:
                with pytest.raises(SingularDesign):
                    fit_logistic(x, y, w)
                continue
            fit = fit_logistic(x, y, w)
            assert fit.converged == (status == _kernels.FIT_CONVERGED)
            assert fit.iterations == iterations
            assert np.allclose(fit.coefficients, beta, rtol=1e-9, atol=1e-12)

    def test_input_validation(self):
        x = np.ones((10, 1))
        y = np.zeros(10)
        y[::2] = 1.0
        with pytest.raises(ValueError):
            fit_logistic(np.ones(10), y)  # 1-d design
        with pytest.raises(ValueError):
            fit_logistic(x, y[:5])
        with pytest.raises(ValueError):
            fit_logistic(x, y + 0.5)  # non-binary response
        with pytest.raises(ValueError):
            fit_logistic(x, y, weights=-np.ones(10))
        with pytest.raises(ValueError):
            fit_logistic(x, y, weights=np.ones(5))


class TestStabilizedWeights:
    def test_mean_near_one_on_confounded_cohort(self):
        w = stabilized_weights(random_cohort(2000, 5))
        assert w.shape == (2000,)
        assert np.all(w > 0)
        assert 0.9 < w.mean() < 1.1

    def test_near_unit_weights_without_confounding(self):
        # coin-flip treatments: numerator and denominator models estimate
        # the same probabilities, so weights concentrate at 1
        w = stabilized_weights(coin_cohort(4000, 6))
        assert abs(w.mean() - 1.0) < 0.02
        assert np.all(np.abs(w - 1.0) < 0.35)

    def test_single_arm_raises_positivity(self):
        records = [CohortRecord(i % 2, 1, i % 2, i // 2 % 2, 0) for i in range(40)]
        with pytest.raises(PositivityViolation):
            stabilized_weights(records)
        records = [CohortRecord(i % 2, i // 2 % 2, i % 2, 0, 0) for i in range(40)]
        with pytest.raises(PositivityViolation):
            stabilized_weights(records)

    def test_constant_outcome_still_weighted(self):
        # the outcome plays no part in the treatment models; only the
        # risk ratio needs both outcomes
        records = [CohortRecord(r.l0, r.a0, r.l1, r.a1, 0) for r in random_cohort(500, 22)]
        w = stabilized_weights(records)
        assert w.shape == (500,) and np.all(np.isfinite(w)) and np.all(w > 0)
        with pytest.raises(EstimationError, match="separat"):
            analyze_cohort(records, 0, 0)

    def test_truncation_clips_tails(self):
        cohort = random_cohort(2000, 7)
        w = stabilized_weights(cohort)
        wt = stabilized_weights(cohort, truncate_percentile=90.0)
        assert wt.max() <= w.max()
        assert wt.min() >= w.min()
        assert wt.max() == pytest.approx(np.percentile(w, 90.0), rel=1e-12)
        # interior weights pass through untouched
        inside = (w > np.percentile(w, 10.0)) & (w < np.percentile(w, 90.0))
        assert np.array_equal(w[inside], wt[inside])

    def test_truncation_percentile_validated(self):
        cohort = random_cohort(200, 8)
        for bad in (50.0, 100.0, 12.0, -3.0):
            with pytest.raises(ValueError):
                stabilized_weights(cohort, truncate_percentile=bad)

    def test_deterministic(self):
        cohort = random_cohort(500, 9)
        assert np.array_equal(stabilized_weights(cohort), stabilized_weights(cohort))


class TestFitMsm:
    def test_recovers_marginal_effect_without_confounding(self):
        # with coin treatments the crude contrast is causal; the MSM
        # should land near P(Y|a0=1,a1=1)/P(Y|a0=0,a1=0) = 0.7/0.2
        cohort = coin_cohort(40_000, 10)
        w = stabilized_weights(cohort)
        msm = fit_msm(cohort, w)
        assert msm.rr_obs == pytest.approx(3.5, abs=0.25)

    def test_identity_between_probabilities_and_ratio(self):
        cohort = random_cohort(1500, 11)
        msm = fit_msm(cohort, stabilized_weights(cohort))
        assert msm.rr_obs == pytest.approx(msm.p11 / msm.p00, rel=1e-12)
        assert msm.ci_lower is None and msm.ci_upper is None

    def test_weight_diagnostics_recorded(self):
        cohort = random_cohort(1500, 12)
        w = stabilized_weights(cohort)
        msm = fit_msm(cohort, w)
        assert msm.weight_mean == pytest.approx(w.mean(), rel=1e-12)
        assert msm.weight_max == pytest.approx(w.max(), rel=1e-12)

    def test_off_calibration_weights_warn(self):
        cohort = random_cohort(800, 13)
        w = np.full(len(cohort), 2.0)
        with pytest.warns(WeightDiagnosticWarning):
            fit_msm(cohort, w)

    def test_degenerate_outcome_raises(self):
        # y identical to a1 drives the fitted arm probabilities onto the
        # boundary; the ratio is undefined rather than astronomically large
        rng = np.random.default_rng(14)
        records = []
        for _ in range(400):
            l0 = int(rng.random() < 0.5)
            a0 = int(rng.random() < 0.5)
            l1 = int(rng.random() < 0.5)
            a1 = int(rng.random() < 0.5)
            records.append(CohortRecord(l0, a0, l1, a1, a1))
        w = np.ones(len(records))
        with pytest.raises(EstimationError, match="separat"):
            fit_msm(records, w)

    def test_constant_outcome_is_separated(self):
        # the same failure, under the same name, as analyze_cohort
        records = [replace(r, y=0) for r in random_cohort(300, 3)]
        with pytest.raises(EstimationError, match="separated fit"):
            fit_msm(records, stabilized_weights(records))
        with pytest.raises(EstimationError, match="separated fit"):
            analyze_cohort(records, 0, 0)

    def test_weight_validation(self):
        cohort = random_cohort(100, 15)
        with pytest.raises(ValueError):
            fit_msm(cohort, np.ones(50))
        with pytest.raises(ValueError):
            fit_msm(cohort, np.zeros(100))

    def test_msm_result_invariants(self):
        with pytest.raises(ValueError):
            MsmResult(rr_obs=2.0, p11=0.8, p00=0.3, weight_mean=1.0, weight_max=2.0)
        with pytest.raises(ValueError):
            MsmResult(
                rr_obs=0.8 / 0.4,
                p11=0.8,
                p00=0.4,
                weight_mean=1.0,
                weight_max=2.0,
                ci_lower=1.5,
            )


class TestBootstrapCi:
    def test_deterministic_for_fixed_seed(self):
        cohort = random_cohort(400, 16)
        a = bootstrap_ci(cohort, replicates=200, seed=42)
        b = bootstrap_ci(cohort, replicates=200, seed=42)
        assert a == b

    def test_seed_changes_interval(self):
        cohort = random_cohort(400, 16)
        a = bootstrap_ci(cohort, replicates=200, seed=42)
        b = bootstrap_ci(cohort, replicates=200, seed=43)
        assert a != b

    def test_interval_brackets_point_estimate(self):
        cohort = random_cohort(1000, 17)
        msm = fit_msm(cohort, stabilized_weights(cohort))
        lo, hi = bootstrap_ci(cohort, replicates=400, seed=0)
        assert lo < msm.rr_obs < hi

    def test_interval_stable_under_doubling(self):
        cohort = random_cohort(1000, 18)
        lo1, hi1 = bootstrap_ci(cohort, replicates=1000, seed=3)
        lo2, hi2 = bootstrap_ci(cohort, replicates=2000, seed=3)
        assert abs(lo1 - lo2) < 0.05
        assert abs(hi1 - hi2) < 0.05

    def test_too_few_replicates_rejected(self):
        cohort = random_cohort(200, 19)
        with pytest.raises(ValueError):
            bootstrap_ci(cohort, replicates=99)

    def test_fragile_cohort_raises(self):
        # a single treated subject at time 0: about a third of resamples
        # lose that arm entirely, far beyond the failure budget
        records = [CohortRecord(1, 1, 1, 1, 1)]
        rng = np.random.default_rng(20)
        for _ in range(5):
            records.append(
                CohortRecord(
                    int(rng.random() < 0.5),
                    0,
                    int(rng.random() < 0.5),
                    int(rng.random() < 0.5),
                    int(rng.random() < 0.5),
                )
            )
        with pytest.raises(BootstrapFailure) as info:
            bootstrap_ci(records, replicates=200, seed=1)
        # failures are counted by reason, in status-code order
        assert str(info.value).startswith(
            "200 of 200 bootstrap replicates failed "
            "(arm missing 112, singular 83, separated 5);"
        )

    def test_bad_seed_rejected(self):
        cohort = random_cohort(200, 21)
        with pytest.raises(ValueError):
            bootstrap_ci(cohort, replicates=100, seed=-1)
