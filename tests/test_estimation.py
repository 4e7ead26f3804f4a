"""Tests for the weighting and MSM estimation layer: the cohort, the
stabilized weights of _kernels.weight_cells gathered per subject, and the
estimate and bootstrap interval of analyze_cohort."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evtv import _kernels, _rng, estimation
from evtv.estimation import (
    BootstrapFailure,
    Cohort,
    EstimationError,
    MsmResult,
    PositivityViolation,
    WeightDiagnosticWarning,
    analyze_cohort,
    cell_msm,
    check_replicates,
    cohort_cells,
    count_rows,
    percentile_ci,
)
from evtv.evalue import EffectEstimate, build_report, equal_split_evalue, tradeoff_curve
from evtv.simulation import SimulationParams, generate_cohort, run_replications

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

    def test_uint8_column_above_one_rejected(self):
        column = np.array([0, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="l0 must be 0 or 1, got 2 at row 1"):
            Cohort(column, column, column, column, column)

    def test_owned_read_only_uint8_columns_are_adopted(self):
        columns = [np.array([1, 0], dtype=np.uint8) for _ in range(5)]
        for c in columns:
            c.flags.writeable = False
        cohort = Cohort(*columns)
        assert all(a is b for a, b in zip(cohort.columns, columns))

    def test_read_only_view_of_a_writable_buffer_is_copied(self):
        # the buffer's owner could still change a view the cohort kept
        buffer = np.array([1, 0], dtype=np.uint8)
        view = buffer[:]
        view.flags.writeable = False
        cohort = Cohort(view, view, view, view, view)
        buffer[0] = 0
        assert cohort.l0.tolist() == [1, 0]
        assert not np.shares_memory(cohort.l0, buffer)

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
    """The bootstrap interval of analyze_cohort."""

    @staticmethod
    def interval(cohort: Cohort, replicates: int, seed: int) -> tuple[float, float]:
        msm = analyze_cohort(cohort, replicates, seed)[0]
        return msm.ci_lower, msm.ci_upper

    def test_deterministic_for_fixed_seed(self):
        cohort = random_cohort(400, 16)
        a = self.interval(cohort, replicates=200, seed=42)
        b = self.interval(cohort, replicates=200, seed=42)
        assert a == b

    def test_seed_changes_interval(self):
        cohort = random_cohort(400, 16)
        a = self.interval(cohort, replicates=200, seed=42)
        b = self.interval(cohort, replicates=200, seed=43)
        assert a != b

    def test_interval_brackets_point_estimate(self):
        cohort = random_cohort(1000, 17)
        lo, hi = self.interval(cohort, replicates=400, seed=0)
        assert lo < estimate(cohort).rr_obs < hi

    def test_interval_stable_under_doubling(self):
        cohort = random_cohort(1000, 18)
        lo1, hi1 = self.interval(cohort, replicates=1000, seed=3)
        lo2, hi2 = self.interval(cohort, replicates=2000, seed=3)
        assert abs(lo1 - lo2) < 0.05
        assert abs(hi1 - hi2) < 0.05

    def test_too_few_replicates_rejected(self):
        cohort = random_cohort(200, 19)
        with pytest.raises(ValueError):
            self.interval(cohort, replicates=99, seed=0)

    def test_fragile_cohort_raises(self):
        # twelve subjects whose point estimate is usable, but most
        # resamples lose an arm or separate, far beyond the failure budget
        cells = (1, 2, 11, 13, 14, 15, 15, 26, 28, 28, 29, 31)
        records = cohort_from_rows([[c >> bit & 1 for bit in (4, 3, 2, 1, 0)] for c in cells])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate(records).rr_obs == pytest.approx(1.2864381680003907, rel=1e-12)
            with pytest.raises(BootstrapFailure) as info:
                analyze_cohort(records, 200, 1)
        # failures are counted by reason, in status-code order
        assert str(info.value).startswith(
            "164 of 200 bootstrap replicates failed "
            "(arm missing 23, singular 22, separated 104, degenerate 15);"
        )

    def test_bad_seed_rejected(self):
        cohort = random_cohort(200, 21)
        with pytest.raises(ValueError):
            self.interval(cohort, replicates=100, seed=-1)

    def test_spread_matches_the_delta_method(self):
        # a replicate is a multinomial draw of the 32 cell counts, so the SD
        # of its log rr approaches the delta method's: Var = (sum p g^2 -
        # (sum p g)^2) / n, p the cell shares and g = d log rr / d p from
        # central differences of 1e-4 (rr is invariant to scaling the
        # counts).  +-7% is about three standard errors of an SD from 1000
        # replicates; a resampler drawing n/2 subjects reads ~1.41.
        n, seed = 10_000, 3
        cells = cohort_cells(random_cohort(n, seed))
        counts = np.bincount(cells, minlength=_kernels.N_CELLS).astype(np.float64)
        occupied = np.flatnonzero(counts > 0)
        k = occupied.size
        rows = np.repeat(counts[None, :], 1 + 2 * k, axis=0)
        rows[1 + np.arange(k), occupied] += 1e-4 * n
        rows[1 + k + np.arange(k), occupied] -= 1e-4 * n
        fit = _kernels.rr_cells(rows)
        assert np.all(fit.status == _kernels.REP_OK)
        log_rr = np.log(fit.rr)
        g = (log_rr[1 : 1 + k] - log_rr[1 + k :]) / 2e-4
        p = counts[occupied] / n
        delta_sd = np.sqrt((np.sum(p * g**2) - np.sum(p * g) ** 2) / n)
        boot = _kernels.rr_cells(count_rows(cells, 1000, seed)[1:])
        assert np.all(boot.status == _kernels.REP_OK)
        assert 0.93 <= np.std(np.log(boot.rr), ddof=1) / delta_sd <= 1.07


class TestBoundaryRules:
    """The failure statuses, the bootstrap failure budget, the weight
    warning band and weight_max at their boundaries, on synthetic
    replicates and one-row fits."""

    def test_failure_table_names_every_failure_status(self):
        # usable means REP_OK: a code missing here would pass cell_msm but
        # be dropped by percentile_ci
        codes = {v for k, v in vars(_kernels).items() if k.startswith("REP_")}
        assert set(estimation._FAILURES) == codes - {_kernels.REP_OK}

    @staticmethod
    def msm(counts, sw) -> MsmResult:
        # cell_msm of a usable one-row fit whose 32 cells have weights sw
        fit = _kernels.CellFit(np.array([2.0]), np.array([_kernels.REP_OK]), np.array([0.6]),
                               np.array([0.3]), np.asarray(sw, dtype=np.float64)[None, :])
        return cell_msm(np.asarray(counts, dtype=np.float64)[None, :], fit, 0, 0)

    def test_failure_budget_is_ten_percent(self):
        status = np.full(100, _kernels.REP_OK)
        status[:10] = _kernels.REP_POSITIVITY
        rr = np.where(status == _kernels.REP_OK, np.linspace(1.0, 2.0, 100), np.nan)
        assert percentile_ci(rr, status) == tuple(np.percentile(rr[10:], [2.5, 97.5]))
        status[10], rr[10] = _kernels.REP_SINGULAR, np.nan
        with pytest.raises(BootstrapFailure, match=r"^11 of 100 bootstrap replicates failed "
                           r"\(positivity 10, singular 1\);"):
            percentile_ci(rr, status)

    def test_weight_band_is_closed(self):
        counts = np.zeros(_kernels.N_CELLS)
        counts[5] = 1.0
        for mean in (0.8, 1.2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert self.msm(counts, np.full(_kernels.N_CELLS, mean)).weight_mean == mean
        for mean in (np.nextafter(0.8, 0.0), np.nextafter(1.2, 2.0)):
            with pytest.warns(WeightDiagnosticWarning, match=r"outside \[0\.8, 1\.2\]"):
                self.msm(counts, np.full(_kernels.N_CELLS, mean))

    def test_weight_max_over_occupied_cells(self):
        # an empty cell's weight is never a subject's, however large
        counts = np.zeros(_kernels.N_CELLS)
        counts[[3, 7]] = 2.0, 3.0
        sw = np.ones(_kernels.N_CELLS)
        sw[[3, 7, 20]] = 1.1, 0.95, 50.0
        assert self.msm(counts, sw).weight_max == 1.1


# either sign, magnitudes 1e-300 to 1e300, and a few values drawn often for ties
_percentile_value = st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(1e-300, 1e300),
                              st.floats(-1e300, -1e-300))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.one_of(st.sampled_from([1, 2, 21, 41]), st.integers(1, 400)),
              elements=_percentile_value))
@example(np.linspace(1.0, 3.0, 21))  # (21 - 1) * q ends in .5 for both quantiles
@example(np.array([-0.0]))  # numpy reads n = 1 at index -1 with weight 1, keeping the sign
def test_percentiles_match_numpy_bit_for_bit(x):
    want = np.percentile(x, [2.5, 97.5])
    assert estimation._percentiles(x, [2.5, 97.5]).tobytes() == want.tobytes()


class TestCheckReplicates:
    """check_replicates is the one rule for a bootstrap replicate count."""

    def test_zero_means_no_interval(self):
        assert check_replicates(0) == 0

    @pytest.mark.parametrize("count, message", [
        (0.5, "replicates must be an integer, got 0.5"),
        (-1, "replicates must be >= 100, got -1"),
        (99, "replicates must be >= 100, got 99"),
    ])
    def test_other_counts_from_100(self, count, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_replicates(count)

    def test_report_is_for_two_timepoints(self):
        # curve_points is keyword-only, so a stray positional count cannot become a curve
        cohort = random_cohort(200, 22)
        assert analyze_cohort(cohort, 0, 0)[1].timepoints == 2
        with pytest.raises(TypeError):
            analyze_cohort(cohort, 0, 0, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: equal_split_evalue(4.0, 2.9), "timepoints must be an integer, got 2.9"),
    (lambda: equal_split_evalue(4.0, True), "timepoints must be an integer, got True"),
    (lambda: build_report(EffectEstimate("rr", 4.0), 2.9),
     "timepoints must be an integer, got 2.9"),
    (lambda: tradeoff_curve(2.0, 10.9), "n_points must be an integer, got 10.9"),
    (lambda: run_replications(SimulationParams(n=50), 1, 2.9),
     "replications must be an integer, got 2.9"),
    (lambda: check_replicates("150"), "replicates must be an integer, got '150'"),
    (lambda: check_replicates(0.0), "replicates must be an integer, got 0.0"),
    (lambda: _rng.check_seed(2.0), "seed must be an integer, got 2.0"),
    (lambda: SimulationParams(n=2.0), "n must be an integer, got 2.0"),
], ids=["equal_split", "equal_split_bool", "build_report", "tradeoff_curve",
        "run_replications", "replicates_str", "replicates_zero_float", "seed", "cohort_size"])
def test_integer_rule_refuses_what_int_would_truncate_or_parse(call, message):
    # errors.check_integer: a bool or any value that is not numbers.Integral;
    # int() would have run T=2, 10 curve points, 2 replications, 150 replicates
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_integer_rule_takes_numpy_integers():
    assert check_replicates(np.int64(150)) == 150
    assert type(check_replicates(np.uint16(150))) is int
    assert equal_split_evalue(4.0, np.int32(2)) == equal_split_evalue(4.0, 2)
