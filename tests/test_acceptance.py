"""End-to-end acceptance suite.

One test per release criterion, named test_criterion_N_*, so a verbose
pytest run shows a pass/fail line for each.  Every test also prints its
measured numbers (visible with -s, or in the failure report).

Statistical criteria run the replication machinery at fixed seeds and
compare against exact enumeration values that were computed with an
independent script over all 64 binary subject histories and frozen
below.  Two enumeration conventions exist for the time-1 confounder and
each check uses the one its quantity targets: the Monte Carlo truth
averages potential outcomes whose time-1 confounder followed the
subject's actual treatment history, while the weighted estimator is
consistent for the contrast in which the confounder's distribution
tracks the compared regime.
"""
import json
import math
import time

import numpy as np
import pytest

from evtv import cli
from evtv.estimation import analyze_cohort
from evtv.evalue import (
    ConfounderStrength,
    EffectEstimate,
    bias_factor,
    ci_evalue,
    equal_split_evalue,
    evalue_from_rr,
    normalize_estimate,
    residual_evalue,
    tradeoff_curve,
)
from evtv.report import read_cohort_csv, write_cohort_csv
from evtv.simulation import (
    SimulationParams,
    run_experiment,
    run_replications,
    true_rr_enumerate,
)

# frozen oracle values (independent enumeration, 64 binary histories)
ENUM_INTERVENED_L1 = 1.9233945494297771
ENUM_OBSERVED_L1 = 1.8140339423946537
ENUM_ZEROED_CONFOUNDING = 1.4912248058116115

# reference-seed fixture: defaults, n = 1000, seed 7, 1000 bootstrap
# replicates; recorded from the per-row bootstrap pipeline and frozen as
# a regression guard (the cell-count engine agrees to ~1e-15)
REFERENCE_SEED = 7
REFERENCE_RR_OBS = 1.8474036216036884
REFERENCE_CI = (1.6085976049082156, 2.172189615230659)

REPLICATION_SEED = 12345
ZEROED_SEED = 777

ZEROED_PARAMS = SimulationParams(
    a0_model=(-0.8, 1.2, 0.0),
    a1_model=(-1.2, 1.0, 1.2, 0.0),
    outcome_model=(-0.5, 1.0, 1.2, 0.7, 0.8, 0.4, 0.0, 0.0),
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


@pytest.fixture(scope="module")
def default_study():
    t0 = time.perf_counter()
    results = run_replications(SimulationParams(), REPLICATION_SEED, 500)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def zeroed_study():
    return run_replications(ZEROED_PARAMS, ZEROED_SEED, 300)


@pytest.fixture(scope="module")
def reference_experiment():
    return run_experiment(SimulationParams(), REFERENCE_SEED, 1000)


def test_criterion_1_closed_form_fixtures():
    e = EffectEstimate(measure="rr", value=1.73, ci_lower=1.52, ci_upper=1.99)
    n = normalize_estimate(e)
    single = evalue_from_rr(1.73)
    equal = equal_split_evalue(1.73, 2)
    ci_equal = ci_evalue(n, 2, "equal_split")
    ci_single = ci_evalue(n, 2, "single_timepoint")
    ok = (
        abs(single - 2.85) <= 0.005
        and abs(equal - 1.96) <= 0.005
        and abs(ci_equal - 1.77) <= 0.005
        and abs(ci_single - 2.41) <= 0.005
    )
    report(
        1,
        "closed-form fixtures",
        ok,
        f"single={single:.4f} equal={equal:.4f} "
        f"ci_equal={ci_equal:.4f} ci_single={ci_single:.4f}",
    )


def test_criterion_2_tradeoff_curve_fixtures():
    s1_a = residual_evalue(1.73, bias_factor(ConfounderStrength(1.50, 1.50)))
    s1_b = residual_evalue(1.52, bias_factor(ConfounderStrength(1.40, 1.40)))
    ok = abs(s1_a - 2.44) <= 0.01 and abs(s1_b - 2.13) <= 0.015
    report(
        2,
        "trade-off curve fixtures",
        ok,
        f"1.73@1.50->{s1_a:.4f} 1.52@1.40->{s1_b:.4f}",
    )


def test_criterion_3_real_data_fixtures():
    checks = []
    details = []
    for value in (1.375, 1.38):
        e = EffectEstimate(
            measure="or", value=value, ci_lower=1.07, ci_upper=1.77, outcome_rare=True
        )
        n = normalize_estimate(e)
        single = evalue_from_rr(n.rr)
        equal = equal_split_evalue(n.rr, 2)
        curve_202 = residual_evalue(n.rr, bias_factor(ConfounderStrength(2.02, 2.02)))
        ci_single = ci_evalue(n, 2, "single_timepoint")
        ci_equal = ci_evalue(n, 2, "equal_split")
        ci_curve_130 = residual_evalue(
            n.ci_limit_rr, bias_factor(ConfounderStrength(1.30, 1.30))
        )
        checks += [
            2.09 <= single <= 2.11,
            1.62 <= equal <= 1.64,
            1.18 <= curve_202 <= 1.21,
            abs(ci_single - 1.34) <= 0.01,
            1.215 <= ci_equal <= 1.235,
            1.125 <= ci_curve_130 <= 1.135,
        ]
        details.append(
            f"OR {value}: single={single:.4f} equal={equal:.4f} "
            f"curve@2.02={curve_202:.4f} ci_single={ci_single:.4f} "
            f"ci_equal={ci_equal:.4f} ci_curve@1.30={ci_curve_130:.4f}"
        )
    report(3, "real-data fixtures", all(checks), "; ".join(details))


def test_criterion_4_defining_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    rr_draws = 1.0 + 49.0 * rng.random(10_000)
    worst_identity = 0.0
    for rr in rr_draws:
        e = evalue_from_rr(rr)
        b = bias_factor(ConfounderStrength(e, e)).value
        worst_identity = max(worst_identity, abs(b - rr) / rr)
    worst_split = 0.0
    for rr in rr_draws[:1000]:
        for t in range(1, 7):
            s = equal_split_evalue(rr, t)
            b = bias_factor(ConfounderStrength(s, s)).value
            worst_split = max(worst_split, abs(b**t - rr) / rr)
    worst_curve = 0.0
    for rr in rr_draws[:50]:
        for p in tradeoff_curve(float(rr), 21):
            worst_curve = max(worst_curve, abs(p.b0 * p.b1 - rr) / rr)
            worst_curve = max(
                worst_curve,
                abs(residual_evalue(float(rr), p.b1) - p.strength_t0) / p.strength_t0,
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_identity <= 1e-9
        and worst_split <= 1e-9
        and worst_curve <= 1e-9
        and elapsed < 5.0
    )
    report(
        4,
        "defining-identity property suite",
        ok,
        f"identity<={worst_identity:.1e} split<={worst_split:.1e} "
        f"curve<={worst_curve:.1e} in {elapsed:.2f}s",
    )


def test_criterion_5_simulation_oracle_equivalence(default_study):
    results, elapsed = default_study
    mc = np.array([r.true_rr_mc for r in results])
    se = mc.std(ddof=1) / math.sqrt(len(mc))
    gap = abs(mc.mean() - ENUM_OBSERVED_L1)
    lo, hi = np.percentile(mc, [2.5, 97.5])
    enum_here = true_rr_enumerate(SimulationParams(), "observed")
    ok = (
        abs(enum_here - ENUM_OBSERVED_L1) <= 1e-9 * ENUM_OBSERVED_L1
        and gap <= 3.0 * se
        and lo <= 1.87 <= hi
        and elapsed < 60.0
    )
    report(
        5,
        "simulation oracle equivalence",
        ok,
        f"mc_mean={mc.mean():.4f} enum={ENUM_OBSERVED_L1:.4f} gap={gap / se:.2f}se "
        f"band=[{lo:.4f},{hi:.4f}] contains 1.87, "
        f"(regime-held enumeration {ENUM_INTERVENED_L1:.4f}) in {elapsed:.1f}s",
    )


def test_criterion_6_estimator_behavior(default_study, zeroed_study, reference_experiment):
    # consistency when every unmeasured path is switched off
    enum_zeroed = true_rr_enumerate(ZEROED_PARAMS)
    obs0 = np.array([r.rr_obs for r in zeroed_study])
    se0 = obs0.std(ddof=1) / math.sqrt(len(obs0))
    gap0 = abs(obs0.mean() - enum_zeroed)
    ok_zeroed = (
        abs(enum_zeroed - ENUM_ZEROED_CONFOUNDING) <= 1e-9 * ENUM_ZEROED_CONFOUNDING
        and gap0 <= 3.0 * se0
    )
    # with confounding back on, the estimator is pulled toward the null
    results, _ = default_study
    mc = np.array([r.true_rr_mc for r in results])
    obs = np.array([r.rr_obs for r in results])
    ok_direction = obs.mean() < mc.mean()
    lo, hi = np.percentile(obs, [2.5, 97.5])
    ok_band = lo <= 1.73 <= hi
    # documented reference seed reproduces its recorded fixture
    rec = reference_experiment
    ok_reference = (
        abs(rec.msm.rr_obs - REFERENCE_RR_OBS) <= 1e-9 * REFERENCE_RR_OBS
        and abs(rec.msm.ci_lower - REFERENCE_CI[0]) <= 1e-9 * REFERENCE_CI[0]
        and abs(rec.msm.ci_upper - REFERENCE_CI[1]) <= 1e-9 * REFERENCE_CI[1]
    )
    ok = ok_zeroed and ok_direction and ok_band and ok_reference
    report(
        6,
        "estimator behavior",
        ok,
        f"zeroed mean={obs0.mean():.4f} vs {enum_zeroed:.4f} ({gap0 / se0:.2f}se); "
        f"defaults rr_obs mean={obs.mean():.4f} < mc mean={mc.mean():.4f}: {ok_direction}; "
        f"band=[{lo:.4f},{hi:.4f}] contains 1.73: {ok_band}; "
        f"seed {REFERENCE_SEED} fixture: {ok_reference}",
    )


def test_criterion_7_weight_calibration(default_study):
    results, _ = default_study
    grand = float(np.mean([r.weight_mean for r in results[:200]]))
    ok = 0.98 <= grand <= 1.02
    report(7, "weight calibration", ok, f"grand mean over 200 replications = {grand:.5f}")


def test_criterion_8_pipeline_integrity(reference_experiment, tmp_path, capsys):
    rec = reference_experiment
    # library level: export, re-read, re-estimate
    path = tmp_path / "cohort.csv"
    path.write_text(write_cohort_csv(rec.cohort.observed), encoding="utf-8")
    cohort = read_cohort_csv(str(path))
    msm = analyze_cohort(cohort, 1000, REFERENCE_SEED)[0]
    ok_lib = msm == rec.msm
    # command level: simulate --cohort-out, then analyze the export
    sim_json = tmp_path / "sim.json"
    cohort_csv = tmp_path / "cli_cohort.csv"
    an_json = tmp_path / "analysis.json"
    code1 = cli.main(
        [
            "simulate", "--n", "1000", "--seed", str(REFERENCE_SEED),
            "--bootstrap", "1000",
            "--cohort-out", str(cohort_csv), "--out", str(sim_json),
        ]
    )
    code2 = cli.main(
        [
            "analyze", "--input", str(cohort_csv),
            "--bootstrap", "1000", "--seed", str(REFERENCE_SEED),
            "--out", str(an_json),
        ]
    )
    capsys.readouterr()
    sim_doc = json.loads(sim_json.read_text())
    an_doc = json.loads(an_json.read_text())
    ok_cli = (
        code1 == 0
        and code2 == 0
        and an_doc["estimate"] == sim_doc["estimate"]
        and an_doc["report"] == sim_doc["report"]
    )
    ok = ok_lib and ok_cli
    report(
        8,
        "pipeline integrity",
        ok,
        f"library round-trip identical: {ok_lib}; CLI round-trip identical: {ok_cli}",
    )
