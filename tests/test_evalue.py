"""Unit tests for the closed-form robustness algebra."""
import math

import numpy as np
import pytest

from evtv.evalue import (
    BiasFactor,
    ConfounderStrength,
    EffectEstimate,
    EValueReport,
    Measure,
    adjusted_rr,
    bias_factor,
    build_report,
    ci_evalue,
    combined_bias,
    equal_split_evalue,
    evalue_from_rr,
    normalize_estimate,
    residual_evalue,
    tradeoff_curve,
)

# frozen closed-form values, computed independently of the package
E_173 = 2.853788236279416
E_152 = 2.409044430835715
EQ_173_T2 = 1.9592708515895563
EQ_152_T2 = 1.7687159830360595
EQ_173_T3 = 1.691021764019525
HR2_AS_RR = 1.612547326536066


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class TestEffectEstimate:
    def test_measure_coerced_from_string(self):
        e = EffectEstimate(measure="or", value=1.5)
        assert e.measure is Measure.OR

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            EffectEstimate(measure="smd", value=1.5)

    def test_ci_needs_both_limits(self):
        with pytest.raises(ValueError):
            EffectEstimate(measure="rr", value=1.5, ci_lower=1.2)
        with pytest.raises(ValueError):
            EffectEstimate(measure="rr", value=1.5, ci_upper=1.9)

    def test_ci_must_bracket_value(self):
        with pytest.raises(ValueError):
            EffectEstimate(measure="rr", value=1.5, ci_lower=1.6, ci_upper=1.9)
        with pytest.raises(ValueError):
            EffectEstimate(measure="rr", value=2.0, ci_lower=1.2, ci_upper=1.9)

    def test_nonpositive_value_rejected(self):
        for bad in (0.0, -1.3, math.nan):
            with pytest.raises(ValueError):
                EffectEstimate(measure="rr", value=bad)

    def test_has_ci(self):
        assert not EffectEstimate(measure="rr", value=1.5).has_ci
        assert EffectEstimate(
            measure="rr", value=1.5, ci_lower=1.2, ci_upper=1.9
        ).has_ci


class TestBiasFactor:
    def test_known_value(self):
        # (2*4)/(2+4-1) = 8/5
        assert bias_factor(ConfounderStrength(2.0, 4.0)).value == pytest.approx(
            1.6, abs=1e-15
        )

    def test_null_strength_gives_unit_bias(self):
        assert bias_factor(ConfounderStrength(1.0, 1.0)).value == 1.0

    def test_one_null_association_gives_unit_bias(self):
        assert bias_factor(ConfounderStrength(1.0, 7.0)).value == 1.0
        assert bias_factor(ConfounderStrength(7.0, 1.0)).value == 1.0

    def test_symmetric_in_arguments(self):
        a = bias_factor(ConfounderStrength(1.8, 3.2)).value
        b = bias_factor(ConfounderStrength(3.2, 1.8)).value
        assert a == b

    def test_strength_below_one_rejected(self):
        with pytest.raises(ValueError):
            ConfounderStrength(0.9, 2.0)
        with pytest.raises(ValueError):
            ConfounderStrength(2.0, 0.9)

    def test_bias_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            BiasFactor(0.99)

    def test_combined_bias_is_product(self):
        strengths = [ConfounderStrength(2.0, 4.0), ConfounderStrength(1.5, 1.5)]
        b = combined_bias(strengths)
        assert b.value == pytest.approx(1.6 * (2.25 / 2.0), rel=1e-15)

    def test_adjusted_rr_divides(self):
        assert adjusted_rr(3.2, BiasFactor(1.6)) == pytest.approx(2.0, rel=1e-15)
        assert adjusted_rr(3.2, 1.6) == pytest.approx(2.0, rel=1e-15)

    def test_adjusted_rr_can_cross_the_null(self):
        # the corrected bound is a plain quotient; a large enough bias
        # factor can push it past the null, which is the point of the bound
        assert adjusted_rr(1.2, 5.0) == pytest.approx(0.24, rel=1e-15)


class TestEvalueFromRr:
    def test_null_maps_to_one(self):
        assert evalue_from_rr(1.0) == 1.0

    def test_frozen_values(self):
        assert rel(evalue_from_rr(1.73), E_173) < 1e-15
        assert rel(evalue_from_rr(1.52), E_152) < 1e-15
        assert rel(evalue_from_rr(2.0), 2.0 + math.sqrt(2.0)) < 1e-15

    def test_defining_identity(self):
        for rr in (1.0001, 1.3, 2.0, 5.0, 17.5, 49.9):
            e = evalue_from_rr(rr)
            assert rel(e * e / (2.0 * e - 1.0), rr) < 1e-12

    def test_near_null_snaps(self):
        # values within 1e-12 of the null are treated as exactly null
        assert evalue_from_rr(1.0 - 1e-13) == 1.0
        assert evalue_from_rr(1.0 + 1e-13) == 1.0

    def test_below_null_rejected(self):
        with pytest.raises(ValueError):
            evalue_from_rr(0.8)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            evalue_from_rr(math.nan)


class TestEqualSplit:
    def test_single_timepoint_reduces_to_plain_evalue(self):
        for rr in (1.0, 1.52, 3.7):
            assert equal_split_evalue(rr, 1) == evalue_from_rr(rr)

    def test_frozen_values(self):
        assert rel(equal_split_evalue(1.73, 2), EQ_173_T2) < 1e-15
        assert rel(equal_split_evalue(1.73, 3), EQ_173_T3) < 1e-15
        assert rel(equal_split_evalue(1.52, 2), EQ_152_T2) < 1e-15

    def test_decreasing_in_timepoints(self):
        values = [equal_split_evalue(2.5, t) for t in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reconstructs_target(self):
        for t in range(1, 7):
            s = equal_split_evalue(1.87, t)
            b = bias_factor(ConfounderStrength(s, s)).value
            assert rel(b**t, 1.87) < 1e-12

    def test_bad_timepoints_rejected(self):
        with pytest.raises(ValueError):
            equal_split_evalue(1.5, 0)
        with pytest.raises(ValueError):
            equal_split_evalue(1.5, -2)


class TestResidualEvalue:
    def test_frozen_values(self):
        assert rel(residual_evalue(1.73, 1.125), 2.4471636782894266) < 1e-15
        assert rel(residual_evalue(1.52, 1.0888888888888888), 2.139335962611945) < 1e-12

    def test_accepts_bias_factor_object(self):
        assert residual_evalue(1.73, BiasFactor(1.125)) == residual_evalue(1.73, 1.125)

    def test_unit_bias_leaves_full_evalue(self):
        assert residual_evalue(1.73, 1.0) == evalue_from_rr(1.73)

    def test_bias_equal_to_target_leaves_null(self):
        assert residual_evalue(1.73, 1.73) == 1.0

    def test_bias_beyond_target_rejected(self):
        with pytest.raises(ValueError):
            residual_evalue(1.73, 1.8)


class TestTradeoffCurve:
    def test_endpoints_are_exact(self):
        pts = tradeoff_curve(1.73, 7)
        first, last = pts[0], pts[-1]
        assert (first.strength_t0, first.b0) == (1.0, 1.0)
        assert first.strength_t1 == evalue_from_rr(1.73)
        assert first.b1 == 1.73
        assert (last.strength_t1, last.b1) == (1.0, 1.0)
        assert last.strength_t0 == evalue_from_rr(1.73)
        assert last.b0 == 1.73

    def test_bias_split_multiplies_to_target(self):
        for p in tradeoff_curve(2.4, 41):
            assert rel(p.b0 * p.b1, 2.4) < 1e-12

    def test_involution(self):
        # reading the curve from either axis gives the same pairing
        for p in tradeoff_curve(1.9, 21):
            assert rel(residual_evalue(1.9, p.b1), p.strength_t0) < 1e-9
            assert rel(residual_evalue(1.9, p.b0), p.strength_t1) < 1e-9

    def test_grid_is_uniform_in_strength(self):
        pts = tradeoff_curve(1.73, 5)
        s = [p.strength_t0 for p in pts]
        steps = np.diff(s)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_strengths_move_in_opposite_directions(self):
        pts = tradeoff_curve(3.1, 30)
        t0 = [p.strength_t0 for p in pts]
        t1 = [p.strength_t1 for p in pts]
        assert all(a < b for a, b in zip(t0, t0[1:]))
        assert all(a > b for a, b in zip(t1, t1[1:]))

    def test_null_target_degenerates(self):
        pts = tradeoff_curve(1.0, 9)
        assert len(pts) == 9
        assert all(p == pts[0] for p in pts)
        assert pts[0].strength_t0 == pts[0].strength_t1 == 1.0
        assert pts[0].b0 == pts[0].b1 == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_curve(1.73, 1)


class TestNormalizeEstimate:
    def test_risk_ratio_passthrough(self):
        n = normalize_estimate(
            EffectEstimate(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
        )
        assert n.rr == 1.73
        assert n.ci_limit_rr == 1.52
        assert not n.inverted
        assert not n.ci_crosses_null

    def test_preventive_ratio_inverts(self):
        n = normalize_estimate(
            EffectEstimate(measure="rr", value=0.5, ci_lower=0.4, ci_upper=0.8)
        )
        assert rel(n.rr, 2.0) < 1e-15
        # old upper limit becomes the limit nearest the null
        assert rel(n.ci_limit_rr, 1.25) < 1e-15
        assert n.inverted

    def test_odds_ratio_common_outcome_takes_square_root(self):
        n = normalize_estimate(EffectEstimate(measure="or", value=1.375))
        assert rel(n.rr, math.sqrt(1.375)) < 1e-15

    def test_odds_ratio_rare_outcome_passthrough(self):
        n = normalize_estimate(EffectEstimate(measure="or", value=1.375, outcome_rare=True))
        assert n.rr == 1.375

    def test_hazard_ratio_common_outcome(self):
        n = normalize_estimate(EffectEstimate(measure="hr", value=2.0))
        assert rel(n.rr, HR2_AS_RR) < 1e-12

    def test_hazard_ratio_rare_outcome_passthrough(self):
        n = normalize_estimate(EffectEstimate(measure="hr", value=2.0, outcome_rare=True))
        assert n.rr == 2.0

    def test_preventive_hazard_ratio_transforms_then_inverts(self):
        n = normalize_estimate(EffectEstimate(measure="hr", value=0.5))
        assert rel(n.rr, HR2_AS_RR) < 1e-12
        assert n.inverted

    def test_transform_applies_to_ci_limits(self):
        n = normalize_estimate(
            EffectEstimate(measure="or", value=2.25, ci_lower=1.44, ci_upper=4.0)
        )
        assert rel(n.rr, 1.5) < 1e-15
        assert rel(n.ci_limit_rr, 1.2) < 1e-15

    def test_crossing_interval_clamps_limit(self):
        n = normalize_estimate(
            EffectEstimate(measure="rr", value=1.05, ci_lower=0.9, ci_upper=1.2)
        )
        assert n.ci_crosses_null
        assert n.ci_limit_rr == 1.0

    def test_interval_touching_null(self):
        n = normalize_estimate(
            EffectEstimate(measure="rr", value=1.1, ci_lower=1.0, ci_upper=1.2)
        )
        assert n.ci_crosses_null
        assert n.ci_limit_rr == 1.0

    def test_no_interval(self):
        n = normalize_estimate(EffectEstimate(measure="rr", value=1.73))
        assert n.ci_limit_rr is None
        assert not n.ci_crosses_null


class TestCiEvalue:
    def _normalized(self):
        return normalize_estimate(
            EffectEstimate(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
        )

    def test_frozen_values(self):
        n = self._normalized()
        assert rel(ci_evalue(n, 2, "equal_split"), EQ_152_T2) < 1e-15
        assert rel(ci_evalue(n, 2, "single_timepoint"), E_152) < 1e-15

    def test_crossing_interval_needs_no_confounding(self):
        n = normalize_estimate(
            EffectEstimate(measure="rr", value=1.05, ci_lower=0.9, ci_upper=1.2)
        )
        assert ci_evalue(n, 2, "equal_split") == 1.0
        assert ci_evalue(n, 2, "single_timepoint") == 1.0

    def test_missing_interval_rejected(self):
        n = normalize_estimate(EffectEstimate(measure="rr", value=1.73))
        with pytest.raises(ValueError):
            ci_evalue(n, 2, "equal_split")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ci_evalue(self._normalized(), 2, "worst_case")


class TestBuildReport:
    def test_full_report_frozen_values(self):
        e = EffectEstimate(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
        r = build_report(e, 2)
        assert r.timepoints == 2
        assert rel(r.evalue_equal_split, EQ_173_T2) < 1e-15
        assert rel(r.evalue_single_timepoint, E_173) < 1e-15
        assert rel(r.ci_evalue_equal_split, EQ_152_T2) < 1e-15
        assert rel(r.ci_evalue_single_timepoint, E_152) < 1e-15
        assert r.curve is None

    def test_no_interval_leaves_ci_fields_empty(self):
        r = build_report(EffectEstimate(measure="rr", value=1.73), 2)
        assert r.ci_evalue_equal_split is None
        assert r.ci_evalue_single_timepoint is None

    def test_curve_included_for_two_timepoints(self):
        e = EffectEstimate(measure="rr", value=1.73)
        r = build_report(e, 2, curve_points=25)
        assert r.curve is not None and len(r.curve) == 25

    def test_curve_skipped_for_other_timepoints(self):
        e = EffectEstimate(measure="rr", value=1.73)
        assert build_report(e, 1, curve_points=25).curve is None
        assert build_report(e, 3, curve_points=25).curve is None

    def test_equal_split_never_exceeds_single(self):
        for rr in (1.0, 1.01, 1.5, 2.0, 9.0):
            for t in range(1, 6):
                r = build_report(EffectEstimate(measure="rr", value=rr), t)
                tol = 1e-12 * r.evalue_single_timepoint
                assert r.evalue_equal_split <= r.evalue_single_timepoint + tol

    def test_normalization_feeds_report(self):
        # a preventive odds ratio goes through transform and inversion first
        e = EffectEstimate(measure="or", value=0.64, outcome_rare=False)
        r = build_report(e, 2)
        assert rel(r.evalue_single_timepoint, evalue_from_rr(1.25)) < 1e-12

    def test_bad_timepoints_rejected(self):
        with pytest.raises(ValueError):
            build_report(EffectEstimate(measure="rr", value=1.5), 0)

    def test_report_invariant_enforced(self):
        e = EffectEstimate(measure="rr", value=2.0)
        normalized = normalize_estimate(e)
        with pytest.raises(ValueError):
            EValueReport(
                estimate=e,
                normalized=normalized,
                timepoints=2,
                evalue_equal_split=2.5,
                evalue_single_timepoint=2.0,
            )
