"""Tests for the weighting and MSM estimation layer: the cohort, the
stabilized weights of _kernels.weight_cells gathered per subject, the
estimate of analyze_cohort, and the bootstrap interval."""
from dataclasses import replace

import numpy as np
import pytest

from evtv import _kernels
from evtv.estimation import (
    BootstrapFailure,
    Cohort,
    EstimationError,
    MsmResult,
    PositivityViolation,
    WeightDiagnosticWarning,
    bootstrap_ci,
    cohort_cells,
)
from evtv.simulation import SimulationParams, analyze_cohort, generate_cohort

from _per_row import OFF_CALIBRATION_ROWS, cohort_from_rows


def random_cohort(n: int, seed: int) -> Cohort:
    """Confounded two-timepoint cohort straight from the generating process."""
    return generate_cohort(SimulationParams(n=n), seed).observed


def coin_cohort(n: int, seed: int) -> Cohort:
    """Cohort whose treatments are fair coins, independent of everything."""
    rng = np.random.default_rng(seed)
    l0 = rng.random(n) < 0.5
    a0 = rng.random(n) < 0.5
    l1 = rng.random(n) < 0.3 + 0.3 * l0
    a1 = rng.random(n) < 0.5
    y = rng.random(n) < 0.2 + 0.2 * a0 + 0.3 * a1
    return Cohort(l0, a0, l1, a1, y)


def subject_weights(cohort: Cohort) -> np.ndarray:
    """Per-subject stabilized weights: weight_cells' per-cell sw gathered
    by cell id, after checking the treatment models succeeded."""
    cells = cohort_cells(cohort)
    sw, status = _kernels.weight_cells(np.bincount(cells, minlength=_kernels.N_CELLS)[None, :])
    assert status[0] == _kernels.REP_OK
    return sw[0][cells]


def estimate(cohort: Cohort) -> MsmResult:
    """The point estimate of analyze_cohort, without a bootstrap."""
    return analyze_cohort(cohort, 0, 0)[0]


class TestCohort:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="l1 must be 0 or 1, got 2 at row 1"):
            cohort_from_rows([(0, 0, 0, 0, 0), (0, 0, 2, 0, 0)])
        with pytest.raises(ValueError, match="y must be 0 or 1"):
            cohort_from_rows([(0, 0, 0, 0, -1)])
        with pytest.raises(ValueError, match="a0 must be 0 or 1"):
            Cohort([1], [0.5], [1], [1], [0])

    def test_columns_layout(self):
        cohort = cohort_from_rows([(1, 0, 1, 1, 0), (0, 1, 0, 0, 1)])
        l0, a0, l1, a1, y = cohort.columns
        assert l0.tolist() == [1, 0]
        assert a0.tolist() == [0, 1]
        assert y.tolist() == [0, 1]
        assert all(c.dtype == np.uint8 and not c.flags.writeable for c in cohort.columns)
        assert cohort_cells(cohort).tolist() == [0b10110, 0b01001]
        assert len(cohort) == 2

    def test_columns_are_private_copies(self):
        l0 = np.array([1, 0])
        cohort = Cohort(l0, l0, l0, l0, l0)
        l0[0] = 0
        assert cohort.l0.tolist() == [1, 0]
        with pytest.raises(ValueError):
            cohort.y[0] = 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Cohort([1, 0], [1, 0], [1, 0], [1, 0], [1])
        with pytest.raises(ValueError, match="equal length"):
            Cohort(*([[1, 0]],) * 5)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Cohort(*([],) * 5)


class TestStabilizedWeights:
    def test_mean_near_one_on_confounded_cohort(self):
        w = subject_weights(random_cohort(2000, 5))
        assert w.shape == (2000,)
        assert np.all(w > 0)
        assert 0.9 < w.mean() < 1.1

    def test_near_unit_weights_without_confounding(self):
        # coin-flip treatments: numerator and denominator models estimate
        # the same probabilities, so weights concentrate at 1
        w = subject_weights(coin_cohort(4000, 6))
        assert abs(w.mean() - 1.0) < 0.02
        assert np.all(np.abs(w - 1.0) < 0.35)

    def test_single_arm_raises_positivity(self):
        records = cohort_from_rows([(i % 2, 1, i % 2, i // 2 % 2, 0) for i in range(40)])
        with pytest.raises(PositivityViolation, match="treatment arm is empty"):
            estimate(records)
        records = cohort_from_rows([(i % 2, i // 2 % 2, i % 2, 0, 0) for i in range(40)])
        with pytest.raises(PositivityViolation, match="treatment arm is empty"):
            estimate(records)

    def test_constant_outcome_still_weighted(self):
        # the outcome plays no part in the treatment models; only the
        # risk ratio needs both outcomes
        records = replace(random_cohort(500, 22), y=np.zeros(500))
        w = subject_weights(records)
        assert w.shape == (500,) and np.all(np.isfinite(w)) and np.all(w > 0)
        with pytest.raises(EstimationError, match="separat"):
            estimate(records)

    def test_deterministic(self):
        cohort = random_cohort(500, 9)
        assert np.array_equal(subject_weights(cohort), subject_weights(cohort))
        assert estimate(cohort) == estimate(cohort)


class TestFitMsm:
    def test_recovers_marginal_effect_without_confounding(self):
        # with coin treatments the crude contrast is causal; the MSM
        # should land near P(Y|a0=1,a1=1)/P(Y|a0=0,a1=0) = 0.7/0.2
        msm = estimate(coin_cohort(40_000, 10))
        assert msm.rr_obs == pytest.approx(3.5, abs=0.25)

    def test_identity_between_probabilities_and_ratio(self):
        msm = estimate(random_cohort(1500, 11))
        assert msm.rr_obs == pytest.approx(msm.p11 / msm.p00, rel=1e-12)
        assert msm.ci_lower is None and msm.ci_upper is None

    def test_weight_diagnostics_recorded(self):
        cohort = random_cohort(1500, 12)
        w = subject_weights(cohort)
        msm = estimate(cohort)
        assert msm.weight_mean == pytest.approx(w.mean(), rel=1e-12)
        assert msm.weight_max == w.max()

    def test_off_calibration_weights_warn(self):
        cohort = cohort_from_rows(OFF_CALIBRATION_ROWS)
        with pytest.warns(WeightDiagnosticWarning, match=r"1\.678 outside \[0\.8, 1\.2\]"):
            msm = estimate(cohort)
        assert msm.weight_mean == pytest.approx(subject_weights(cohort).mean(), rel=1e-12)

    def test_degenerate_outcome_raises(self):
        # y identical to a1 drives the fitted arm probabilities onto the
        # boundary; the ratio is undefined rather than astronomically large
        rng = np.random.default_rng(14)
        rows = []
        for _ in range(400):
            l0 = int(rng.random() < 0.5)
            a0 = int(rng.random() < 0.5)
            l1 = int(rng.random() < 0.5)
            a1 = int(rng.random() < 0.5)
            rows.append((l0, a0, l1, a1, a1))
        with pytest.raises(EstimationError, match="separat"):
            estimate(cohort_from_rows(rows))

    def test_constant_outcome_is_separated(self):
        # either constant outcome fails under one name, before any fit
        for y in (np.zeros(300), np.ones(300)):
            records = replace(random_cohort(300, 3), y=y)
            with pytest.raises(EstimationError, match="separated fit"):
                estimate(records)

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
        lo, hi = bootstrap_ci(cohort, replicates=400, seed=0)
        assert lo < estimate(cohort).rr_obs < hi

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
        rows = [(1, 1, 1, 1, 1)]
        rng = np.random.default_rng(20)
        for _ in range(5):
            rows.append(
                (
                    int(rng.random() < 0.5),
                    0,
                    int(rng.random() < 0.5),
                    int(rng.random() < 0.5),
                    int(rng.random() < 0.5),
                )
            )
        records = cohort_from_rows(rows)
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
