"""Tests for the numeric kernels: the batched logistic fit, its Cholesky
solver and the cell-count weight-and-fit pipeline behind every estimate."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evtv import _kernels, _rng
from evtv._kernels import (
    FIT_CONVERGED,
    FIT_MAXITER,
    FIT_SINGULAR,
    N_CELLS,
    REP_ARM_MISSING,
    REP_OK,
    REP_SEPARATED,
    _chol_solve_batched,
    cell_ids,
    count_cells,
    fit_batched,
    outcome_cells,
    rr_cells,
    weight_cells,
)
from evtv.estimation import Cohort, cohort_cells
from evtv.report import _cohort_csv_blocks, write_cohort_csv
from evtv.simulation import SimulationParams, generate_cohort

from _per_row import CELL_MODELS, _chol_solve, fit_logistic, per_row_rr, ungrouped_fits


def logistic_cohort(n: int, seed: int):
    """Synthetic two-timepoint cohort with confounded treatments."""
    rng = np.random.default_rng(seed)
    l0 = (rng.random(n) < 0.6).astype(np.float64)
    a0 = (rng.random(n) < 1.0 / (1.0 + np.exp(0.5 - 1.0 * l0))).astype(np.float64)
    l1 = (rng.random(n) < 1.0 / (1.0 + np.exp(0.2 - 0.7 * a0 - 0.8 * l0))).astype(
        np.float64
    )
    a1 = (rng.random(n) < 1.0 / (1.0 + np.exp(1.0 - 0.9 * a0 - 1.1 * l1))).astype(
        np.float64
    )
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.3 - 0.8 * a0 - 1.0 * a1 - 0.6 * l1))).astype(
        np.float64
    )
    return l0, a0, l1, a1, y


def resample_counts(cells: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Cell counts of each resample; idx holds one row of indices per replicate."""
    return np.stack([np.bincount(cells[k], minlength=N_CELLS) for k in idx])


def bootstrap_counts(n: int, seed: int, reps: int) -> np.ndarray:
    """Cell counts of the resamples that analyze_cohort(cohort, reps, seed)
    draws (estimation.resample_counts), cohort = generate_cohort(n, seed)."""
    cells = cohort_cells(generate_cohort(SimulationParams(n=n), seed).observed)
    idx = [
        _rng.stream(seed, _rng.BOOTSTRAP_DOMAIN, r).integers(0, n, size=n)
        for r in range(reps)
    ]
    return resample_counts(cells, idx)


# Per-replicate statuses and risk ratios of the bootstrap on
# generate_cohort(SimulationParams(n=n), seed), recorded from the
# per-row pipeline this engine replaced (one weight-and-fit run on the
# n resampled rows of each replicate).  Statuses cover every code that
# pipeline produced on these tiny cohorts; a search over 40,000 random
# small cohorts never reached REP_POSITIVITY or a usable row with a fit
# stopped at FIT_MAX_ITER.
# ORACLE_RR keeps every tenth replicate and every replicate in the far
# tails (rr above 1e3 or below 1e-3).
ORACLE_STATUS = {
    (12, 1): (
        "555545555555555555554555552555545555555555455555555555255554"
        "555555555555455555555255555555555555555555555555555545555554"
        "555555555555555555555555552555555555555555552555555522555555"
        "555555555555555555455545555555555555555555555555555555455555"
        "555555555555555555255555555554555555555555555555555555525555"
    ),
    (14, 2): (
        "500505555650550055060450545400044540040055550055000050555565"
        "550546555650554662502446406002565200656654565060656000540550"
        "655056655045546505555500065540025550050640650504044560066500"
        "540245550550546560044055505655505056206656000055550456065065"
        "606505506642504054545646050255526666405565456544005024505405"
    ),
    (18, 0): (
        "564555456005555555554054605555556555556505406555055565065645"
        "555554554555555555550055055550555055550054545444654044055460"
        "055550565552455555555055555555405050545550505545555545565540"
        "454055405555565055000055554555054645550554550005255506554555"
        "555555555455500055550550505505055555504425555550500550555505"
    ),
    (24, 2): (
        "500000005600000000400000006000560000600060045000060506020000"
        "500060040000006006000056000005000004000050000006000050000000"
        "000000000050000040050500000000000000000000660405500005000000"
        "560060050605560500056006045000004000065000000000005060000000"
        "000000440060605000560000000500650000505004000040000506056506"
    ),
    (30, 3): (
        "006000056006600600000006000000666000006000060600065000060660"
        "600560060006060006606600066000600000606000006060055000000660"
        "000006066660600050666606006060666660600500000606006600060060"
        "066600600000600006066050006066000000600666660006006550606005"
        "600606000000560060600060000005606006000600600660000000600666"
    ),
    (50, 0): (
        "000000000000000000000005000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000006000600000"
        "000000000000000000000000000000000000000000000000000000000000"
    ),
    (1000, 7): "0" * 200,
}
ORACLE_RR = {
    (14, 2): {
        20: 66067299.16822406,
        30: 0.47306282856759474,
        45: 57449824.893268965,
        50: 0.6159925436754868,
        150: 0.9933889945989842,
        174: 57449824.066796154,
        230: 1.2611555351113597,
    },
    (18, 0): {
        10: 1.2500000002199134,
        40: 1.3000000016468367,
        80: 1.007407407401005,
        119: 4.6795801410141344e-08,
        120: 1.2857142866099576,
        141: 1.7215213057892224e-08,
        200: 1.2222222213286122,
        210: 1.111111111823543,
        260: 1.2500000003207719,
        270: 1.5714285719542391,
        290: 1.3333333326808947,
    },
    (24, 2): {
        10: 1.4094365667576656,
        20: 1.3186573660061562,
        50: 1.4197659532003772,
        70: 1.3937848562665585,
        80: 1.194776695230789,
        90: 2.3602918199064318,
        110: 3.3661876910911595,
        120: 1.331842591971341,
        140: 1.9750694402777011,
        150: 2.090002767034474,
        160: 1.0860172188782762,
        170: 1.1318781992677869,
        190: 2.69569935923071,
        210: 0.9514708660844642,
        220: 1.3944110017094353,
        240: 2.255934767281327,
        260: 2.0367989490132716,
        280: 1.0973615593925408,
        290: 0.9832723112091177,
    },
    (30, 3): {
        0: 2.789676060571106,
        10: 2.692348966546393,
        20: 2.099248727290468,
        40: 1.3484293798817726,
        70: 1.2392692896586537,
        100: 1.424451777270973,
        120: 2.071906910043688,
        160: 1.1099521942956545,
        180: 1.9061996267559231,
        190: 2.8331463378818156,
        210: 1.5218756596234064,
        250: 2.636109067087183,
        260: 2.0263188751868664,
        280: 2.5107116092822035,
        290: 1.06556763343332,
    },
    (50, 0): {
        0: 1.2503027155732316,
        10: 1.1509024219456827,
        20: 1.2897618331271519,
        30: 1.1313827112979504,
        40: 1.6145371423359096,
        50: 1.22505234614223,
        60: 1.1888894396550935,
        70: 1.2315193128897899,
        80: 1.6071847200543956,
        90: 1.5816662893979425,
        100: 1.1571343147107125,
        110: 1.0309793836382632,
        120: 1.0701163010402954,
        130: 1.3193346450222723,
        140: 1.354398743094731,
        150: 0.9908477883640302,
        160: 0.9426824827523829,
        170: 1.2245123487873242,
        180: 1.3011392194767317,
        190: 1.132794742665767,
        200: 1.1738539822491507,
        210: 1.0614559393699705,
        220: 1.3027543991078043,
        240: 1.2021055162340029,
        250: 1.4587859080890582,
        260: 1.3120533869261766,
        270: 1.3543727171998017,
        280: 1.355522843873498,
        290: 1.6510400802404153,
    },
    (1000, 7): {
        0: 1.9924789942659593,
        10: 1.719041901663636,
        20: 1.9165032190443987,
        30: 2.0536060211466864,
        40: 1.884492787233266,
        50: 1.6661766527316295,
        60: 2.0048638704846833,
        70: 2.0554080969436064,
        80: 1.800853281044989,
        90: 1.91474090918276,
        100: 1.903003262053416,
        110: 1.6154721629043405,
        120: 1.6075376679381246,
        130: 1.7440971020944087,
        140: 1.7966454014465294,
        150: 1.9050265671419309,
        160: 1.7283931096776122,
        170: 1.9309538003270248,
        180: 1.8223336575507794,
        190: 1.6388979694294539,
    },
}


# The three replicates of (14, 2) with rr near 6e7 have an outcome fit
# that stops at the gradient tolerance on a nearly flat likelihood
# (p00 ~ 1e-8, weights from treatment coefficients near 20), so the
# stopping point moves by ~1e-8 relative under any change of summation
# order; both engines take the same 17 Newton steps there.
ILL_CONDITIONED_RR = 1e6


def solve_one(h, g):
    """_chol_solve_batched on a stack of one system."""
    x, ok = _chol_solve_batched(h[None], g[None])
    return x[0], ok[0]


def fit_one(x, y, w, tol=_kernels.FIT_TOL, max_iter=_kernels.FIT_MAX_ITER):
    """fit_batched on a single weight row, with FIT_TOL and FIT_MAX_ITER set
    to tol and max_iter: (beta, iterations, max |gradient|, status)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "FIT_TOL", tol)
        mp.setattr(_kernels, "FIT_MAX_ITER", max_iter)
        return tuple(v[0] for v in fit_batched(x, y, w[None, :]))


class TestCholSolve:
    def test_matches_reference_solver(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 4, 6):
            m = rng.normal(size=(d, d))
            h = m @ m.T + d * np.eye(d)
            g = rng.normal(size=d)
            x, ok = solve_one(h.copy(), g.copy())
            assert ok
            assert np.allclose(x, np.linalg.solve(h, g), rtol=1e-10)

    def test_flags_non_positive_definite(self):
        h = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        x, ok = solve_one(h, np.ones(2))
        assert not ok
        assert np.array_equal(x, np.zeros(2))

    def test_flags_singular(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        x, ok = solve_one(h, np.ones(2))
        assert not ok
        assert np.array_equal(x, np.zeros(2))

    def test_batched_matches_scalar_bit_for_bit(self):
        # against the scalar reference solver in tests/_per_row.py
        rng = np.random.default_rng(4)
        for d in (1, 2, 3, 4):
            m = rng.normal(size=(40, d, d))
            h = m @ np.swapaxes(m, 1, 2)
            h[::3] = -h[::3]  # negative definite
            h[1::5, :, 0] = h[1::5, :, -1]  # repeated column
            h[1::5, 0, :] = h[1::5, -1, :]
            g = rng.normal(size=(40, d))
            x, ok = _chol_solve_batched(h, g)
            for r in range(40):
                x_r, ok_r = _chol_solve(h[r], g[r])
                assert ok[r] == ok_r
                assert np.array_equal(x[r], x_r)
            assert ok.any() and not ok.all()


class TestNumpyFitKernel:
    """fit_batched on one weight row."""

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(11)
        n = 200_000
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.random(n)])
        truth = np.array([-0.4, 0.9, -1.3])
        p = 1.0 / (1.0 + np.exp(-(x @ truth)))
        y = (rng.random(n) < p).astype(np.float64)
        beta, _, gmax, status = fit_one(x, y, np.ones(n), 1e-8, 100)
        assert status == FIT_CONVERGED
        assert gmax < 1e-8
        assert np.all(np.abs(beta - truth) < 0.05)

    def test_weighted_fit_equals_duplicated_rows(self):
        rng = np.random.default_rng(5)
        n = 400
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.random(n) < 0.5).astype(np.float64)
        w = rng.integers(1, 5, size=n).astype(np.float64)
        reps = np.repeat(np.arange(n), w.astype(np.int64))
        beta_w, _, _, s1 = fit_one(x, y, w, 1e-10, 100)
        beta_d, _, _, s2 = fit_one(x[reps], y[reps], np.ones(reps.shape[0]), 1e-10, 100)
        assert s1 == s2 == FIT_CONVERGED
        assert np.allclose(beta_w, beta_d, rtol=1e-10, atol=1e-12)

    def test_zero_weight_rows_are_ignored(self):
        rng = np.random.default_rng(6)
        n = 300
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.random(n) < 0.4).astype(np.float64)
        w = np.ones(n)
        w[:50] = 0.0
        beta_a, _, _, _ = fit_one(x, y, w, 1e-10, 100)
        beta_b, _, _, _ = fit_one(x[50:], y[50:], np.ones(n - 50), 1e-10, 100)
        assert np.allclose(beta_a, beta_b, rtol=1e-10)

    def test_collinear_design_flagged_singular(self):
        rng = np.random.default_rng(7)
        n = 200
        z = rng.normal(size=n)
        x = np.column_stack([np.ones(n), z, 2.0 * z])
        y = (rng.random(n) < 0.5).astype(np.float64)
        _, _, _, status = fit_one(x, y, np.ones(n), 1e-8, 100)
        assert status == FIT_SINGULAR

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(8)
        n = 500
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        p = 1.0 / (1.0 + np.exp(-(1.5 * x[:, 1] - 0.5)))
        y = (rng.random(n) < p).astype(np.float64)
        beta, iterations, _, status = fit_one(x, y, np.ones(n), 1e-8, 1)
        assert status == FIT_MAXITER
        assert iterations == 1

    def test_perfect_separation_hits_coefficient_bound_or_converges(self):
        # y is a deterministic threshold of x: the MLE lies at infinity
        n = 200
        xv = np.linspace(-2.0, 2.0, n)
        x = np.column_stack([np.ones(n), xv])
        y = (xv > 0.0).astype(np.float64)
        beta, _, _, status = fit_one(x, y, np.ones(n), 1e-8, 100)
        assert status in (FIT_CONVERGED, FIT_MAXITER)
        assert np.abs(beta).max() > _kernels.SEPARATION_BOUND


class TestFitBatched:
    def test_each_row_matches_the_per_row_fit(self):
        # against the per-row reference loop in tests/_per_row.py
        rng = np.random.default_rng(12)
        m = 24
        x = np.column_stack([np.ones(m), rng.integers(0, 2, m), rng.normal(size=m)])
        y = (rng.random(m) < 0.5).astype(np.float64)
        w = rng.integers(0, 6, size=(30, m)).astype(np.float64)
        w[3, :] = 0.0
        w[3, :2] = 1.0  # two rows cannot identify three coefficients
        beta, iterations, gmax, status = fit_batched(x, y, w)
        assert status[3] == FIT_SINGULAR
        for r in range(30):
            b, it, g, s = fit_logistic(x, y, w[r], _kernels.FIT_TOL, _kernels.FIT_MAX_ITER)
            assert status[r] == s
            assert iterations[r] == it
            assert np.allclose(beta[r], b, rtol=1e-9, atol=1e-12)
            assert g == pytest.approx(gmax[r], rel=1e-3, abs=1e-12)

    def test_iteration_cap_and_separation_reported(self, monkeypatch):
        x = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w = np.array([[5.0, 3.0, 2.0, 6.0], [4.0, 0.0, 0.0, 4.0]])
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "FIT_MAX_ITER", 1)
            beta, iterations, _, status = fit_batched(x, y, w)
        assert list(status) == [FIT_MAXITER, FIT_MAXITER]
        assert list(iterations) == [1, 1]
        beta, _, _, status = fit_batched(x, y, w)
        assert status[0] == FIT_CONVERGED
        assert np.abs(beta[1]).max() > _kernels.SEPARATION_BOUND

    @pytest.mark.parametrize("max_iter", [1, 2, _kernels.FIT_MAX_ITER])
    def test_rows_stopping_together_are_each_written_as_fitted_alone(self, monkeypatch, max_iter):
        # four rows stop in iteration 0: row 0 converged (zero gradient at
        # beta = 0), row 1 singular (its weights leave the slope
        # unidentified), row 2 out of halvings (a NaN weight makes every
        # trial likelihood NaN) and row 3, with no weight, converged (a zero
        # gradient wins over a singular Hessian); row 4 steps on until it
        # converges or reaches max_iter
        x = np.column_stack([np.ones(4), [0.0, 1.0, 0.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        w = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 0.0, 1.0, 0.0], [1.0, np.nan, 1.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0], [5.0, 3.0, 2.0, 6.0]])
        monkeypatch.setattr(_kernels, "FIT_MAX_ITER", max_iter)
        batch = fit_batched(x, y, w)
        status, iterations = batch[3], batch[1]
        assert list(status[:4]) == [FIT_CONVERGED, FIT_SINGULAR, FIT_MAXITER, FIT_CONVERGED]
        assert list(iterations[:4]) == [0, 0, 0, 0]
        assert (iterations[4], status[4]) == ((max_iter, FIT_MAXITER) if max_iter < 4
                                              else (4, FIT_CONVERGED))
        for r in range(5):
            for got, want in zip(batch, fit_one(x, y, w[r], max_iter=max_iter)):
                assert np.array_equal(got[r], want, equal_nan=True), r

    def test_empty_batch(self):
        beta, iterations, gmax, status = fit_batched(np.ones((3, 1)), np.ones(3), np.ones((0, 3)))
        assert beta.shape == (0, 1) and iterations.shape == gmax.shape == status.shape == (0,)


class TestNumpyPipeline:
    """rr_cells, the cell-count pipeline that estimates bootstrap replicates."""

    def test_status_ok_on_healthy_cohort(self):
        arrs = logistic_cohort(800, 21)
        counts = np.bincount(cell_ids(*arrs), minlength=N_CELLS)
        rr, status, *_ = rr_cells(counts[None, :])
        assert status[0] == REP_OK
        assert 0.0 < rr[0] < np.inf

    def test_missing_arm_flagged(self):
        l0, a0, l1, a1, y = logistic_cohort(300, 22)
        counts = np.bincount(cell_ids(l0, np.zeros_like(a0), l1, a1, y), minlength=N_CELLS)
        rr, status, *_ = rr_cells(counts[None, :])
        assert status[0] == REP_ARM_MISSING
        assert np.isnan(rr[0])

    def test_bootstrap_statuses_and_determinism(self):
        arrs = logistic_cohort(300, 23)
        n = arrs[0].shape[0]
        idx = np.random.default_rng(9).integers(0, n, size=(50, n))
        counts = resample_counts(cell_ids(*arrs), idx)
        rr1, st1, *_ = rr_cells(counts)
        rr2, st2, *_ = rr_cells(counts)
        assert np.array_equal(st1, st2)
        assert np.array_equal(rr1, rr2, equal_nan=True)
        assert np.all(st1 == REP_OK)

    def test_bootstrap_matches_pipeline_per_replicate(self):
        # the per-row pipeline on each resampled cohort is the reference;
        # only the summation order differs
        arrs = logistic_cohort(250, 24)
        n = arrs[0].shape[0]
        idx = np.random.default_rng(10).integers(0, n, size=(5, n))
        rr, st, *_ = rr_cells(resample_counts(cell_ids(*arrs), idx))
        assert np.all(st == REP_OK)
        for r in range(5):
            resample = Cohort(*(a[idx[r]] for a in arrs))
            assert rr[r] == pytest.approx(per_row_rr(resample)[0], rel=1e-12)

    def test_stages_compose_to_rr_cells(self):
        counts = bootstrap_counts(14, 2, 300)
        rr, status, p11, p00, sw = rr_cells(counts)
        sw_alone, st_weights = weight_cells(counts)
        assert np.array_equal(sw, sw_alone, equal_nan=True)
        live = np.flatnonzero(status == REP_OK)
        assert np.all(st_weights[live] == REP_OK)
        with np.errstate(invalid="ignore"):  # 0 * inf in empty cells
            wm = np.where(counts[live] > 0, counts[live] * sw[live], 0.0)
        q11, q00, _ = outcome_cells(wm)
        assert np.array_equal(q11, p11[live]) and np.array_equal(q00, p00[live])
        assert np.array_equal(rr[live], p11[live] / p00[live])
        assert np.all(np.isnan(p11[~np.isin(np.arange(len(rr)), live)]))

    def test_blocks_match_one_unblocked_call(self, monkeypatch):
        rng = np.random.default_rng(31)
        counts = rng.integers(0, 7, size=(3000, N_CELLS)) * (rng.random((3000, N_CELLS)) < 0.5)
        blocked = rr_cells(counts)
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", counts.shape[0])
        whole = rr_cells(counts)
        assert len(np.unique(blocked[1])) >= 4  # several failure paths reached
        for a, b in zip(blocked, whole):
            assert np.array_equal(a, b, equal_nan=True)

    def test_peak_memory_is_bounded(self):
        # 20,000 rows of n=1000 resample counts: the (R, 32) working
        # arrays exist one block at a time
        cells = cohort_cells(generate_cohort(SimulationParams(n=1000), 7).observed)
        freq = np.bincount(cells, minlength=N_CELLS) / cells.shape[0]
        counts = np.random.default_rng(32).multinomial(1000, freq, size=20_000).astype(np.float64)
        tracemalloc.start()
        try:
            rr, status, *_ = rr_cells(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(status == REP_OK) and np.all(np.isfinite(rr))
        assert peak < 12 * 2**20

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            rr_cells(np.ones(N_CELLS))

    def test_cell_ids_order(self):
        bits = [np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]),
                np.array([0, 0, 0, 1]), np.array([0, 1, 1, 1])]
        assert list(cell_ids(*bits)) == [0, 16 + 4 + 1, 8 + 4 + 1, 16 + 8 + 2 + 1]


def under_subject_blocks(monkeypatch, n, run):
    """(run() with _kernels.SUBJECT_BLOCK = 7, run() with one block of n)."""
    results = []
    for block in (7, n):
        monkeypatch.setattr(_kernels, "SUBJECT_BLOCK", block)
        results.append(run())
    return results


@pytest.mark.parametrize("n", [1, 6, 7, 8, 22])
class TestSubjectBlocks:
    """Cohorts of n subjects in blocks of 7 (part of one block, one short
    of a full block, a full one, one past it, one past three) against one
    block holding them all."""

    def test_generated_cohort_does_not_depend_on_blocks(self, monkeypatch, n):
        blocked, whole = under_subject_blocks(
            monkeypatch, n, lambda: generate_cohort(SimulationParams(n=n), 23))
        for a, b in zip((blocked.u0, blocked.u1, blocked.potential_outcomes,
                         *blocked.observed.columns),
                        (whole.u0, whole.u1, whole.potential_outcomes, *whole.observed.columns)):
            assert np.array_equal(a, b)

    def test_count_cells_is_one_bincount(self, monkeypatch, n):
        cells = np.random.default_rng(n).integers(0, N_CELLS, size=n).astype(np.uint8)
        for counts in under_subject_blocks(monkeypatch, n, lambda: count_cells(cells)):
            assert np.array_equal(counts, np.bincount(cells, minlength=N_CELLS))

    def test_cohort_csv_blocks_join_to_the_text(self, monkeypatch, n):
        cohort = generate_cohort(SimulationParams(n=n), 24).observed
        (blocks, _), (_, text) = under_subject_blocks(
            monkeypatch, n, lambda: (list(_cohort_csv_blocks(cohort)), write_cohort_csv(cohort)))
        rows = np.column_stack(cohort.columns)
        assert text == "l0,a0,l1,a1,y\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
        assert len(blocks) == 1 + -(-n // 7)  # the header, then each block's rows
        assert b"".join(blocks) == text.encode()


class TestFrozenPipelineOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_STATUS))
    def test_matches_per_row_pipeline(self, case):
        n, seed = case
        expected = ORACLE_STATUS[case]
        rr, status, *_ = rr_cells(bootstrap_counts(n, seed, len(expected)))
        assert "".join(str(s) for s in status) == expected
        kept = status == REP_OK
        assert np.all(np.isfinite(rr[kept])) and np.all(np.isnan(rr[~kept]))
        for r, value in ORACLE_RR.get(case, {}).items():
            rel = 1e-7 if value > ILL_CONDITIONED_RR else 1e-9
            assert rr[r] == pytest.approx(value, rel=rel), r

    def test_empty_cell_with_infinite_weight_stays_separated(self):
        # replicate 48 of this cohort leaves a cell empty whose fitted
        # treatment probability is exactly 0, so its stabilized weight is
        # inf; weighting it by its count (0 * inf = NaN) would poison the
        # outcome fit and report rr = 1 from a fit out of step halvings
        counts = bootstrap_counts(12, 1, 49)[48:]
        rr, status, *_ = rr_cells(counts)
        assert status[0] == REP_SEPARATED
        assert np.isnan(rr[0])


# mostly-empty cells make every failure path reachable
_cell_count = st.one_of(st.just(0), st.just(0), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.just(N_CELLS)), elements=_cell_count))
def test_replicate_result_does_not_depend_on_batch(counts):
    rr, status, *_ = rr_cells(counts)
    for r in range(counts.shape[0]):
        rr_alone, st_alone, *_ = rr_cells(counts[r : r + 1])
        assert st_alone[0] == status[r]
        if np.isnan(rr[r]):
            assert np.isnan(rr_alone[0])
        else:
            assert math.isclose(rr_alone[0], rr[r], rel_tol=1e-12)


def grouped_fits(counts, weights):
    """The five models' fits as the stages run them, each on its groups:
    the four treatment models on counts, the outcome model on weights."""
    groups = _kernels._TREATMENT_GROUPS + (_kernels._MSM_GROUPS,)
    return [_kernels._fit_groups(g, w) for g, w in zip(groups, [counts] * 4 + [weights])]


# A fit that gives a cell holding weight a fitted probability within about
# 1e-6 of 0 or 1 is near separation: its likelihood is almost flat along
# the separating direction, and Newton stops at the gradient tolerance at
# a point that any change of summation order moves.  On 200,000 random
# sparse rows the grouped and ungrouped coefficients of such fits differed
# by up to 7.6e-6 relative, and those of every other fit by at most 3e-14.
NEAR_SEPARATION = 1e-6


def assert_fits_agree(got, want, x, w):
    # same status and iterations on every row; coefficients within 1e-12
    # of the reference, relative to 1 + |beta|, unless near separation
    beta, iterations, _, status = got
    beta_ref, iterations_ref, _, status_ref = want
    assert np.array_equal(status, status_ref) and np.array_equal(iterations, iterations_ref)
    mu = _kernels.expit(_kernels._linear(beta_ref, x))
    near = np.any((w > 0.0) & (mu * (1.0 - mu) <= NEAR_SEPARATION), axis=1)
    err = np.max(np.abs(beta - beta_ref) / (1.0 + np.abs(beta_ref)), axis=1)
    assert np.all(err[~near] <= 1e-12)
    assert np.all(err[near] <= 1e-4)


class TestGroupedFits:
    """Each model is fitted on its distinct (design row, response) groups."""

    def test_groups_partition_the_cells(self):
        groups = _kernels._TREATMENT_GROUPS + (_kernels._MSM_GROUPS,)
        assert [cells.shape[1] for cells, _, _ in groups] == [4, 2, 16, 4, 8]
        for (cells, x_g, y_g), (x, y) in zip(groups, CELL_MODELS):
            assert sorted(cells.ravel()) == list(range(N_CELLS))
            for j in range(cells.shape[1]):
                assert np.all(x[cells[:, j]] == x_g[j]) and np.all(y[cells[:, j]] == y_g[j])
            distinct = {(*row, r) for row, r in zip(x_g.tolist(), y_g.tolist())}
            assert len(distinct) == cells.shape[1]

    @pytest.mark.parametrize("case", [(14, 2), (30, 3)])
    def test_bootstrap_fits_match_the_ungrouped_fits(self, case):
        # the outcome model on the weighted counts of the rows that pass
        # the weight stage
        counts = bootstrap_counts(*case, 300)
        sw, status = weight_cells(counts)
        live = status == REP_OK
        with np.errstate(invalid="ignore"):  # 0 * inf in empty cells
            w = np.where(counts[live] > 0, counts[live] * sw[live], 0.0)
        for got, want, (x, _), rows in zip(grouped_fits(counts, w), ungrouped_fits(counts, w),
                                           CELL_MODELS, [counts] * 4 + [w]):
            assert_fits_agree(got, want, x, rows)


_cell_scale = arrays(np.float64, (12, N_CELLS), elements=st.floats(0.01, 100.0))


@settings(max_examples=100, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.just(N_CELLS)), elements=_cell_count),
       _cell_scale)
def test_grouped_fits_match_the_ungrouped_fits(counts, scale):
    # sparse counts for the treatment models, float cell weights for the
    # outcome model
    c = counts.astype(np.float64)
    w = c * scale[: c.shape[0]]
    for got, want, (x, _), rows in zip(grouped_fits(c, w), ungrouped_fits(c, w),
                                       CELL_MODELS, [c] * 4 + [w]):
        assert_fits_agree(got, want, x, rows)


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.just(N_CELLS)), elements=_cell_count),
       _cell_scale)
def test_outcome_fit_does_not_depend_on_batch(counts, scale):
    # float outcome-model weights: a row's grouped totals, fit and status
    # are the same bits alone as in any batch
    w = counts * scale[: counts.shape[0]]
    p11, p00, status = outcome_cells(w)
    for r in range(w.shape[0]):
        q11, q00, st_alone = outcome_cells(w[r : r + 1])
        assert st_alone[0] == status[r]
        assert np.array_equal(q11, p11[r : r + 1], equal_nan=True)
        assert np.array_equal(q00, p00[r : r + 1], equal_nan=True)
