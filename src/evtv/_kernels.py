"""Numerical kernels behind the estimation engine.

`fit_batched` is the package's one logistic fitting engine: damped
Newton on one design under R weight vectors at once, with per-replicate
masks for convergence, step-halving and status.

Every subject of the two-timepoint design is one of 2**5 = 32 binary
histories (l0, a0, l1, a1, y), so all five models of the weight-and-fit
pipeline depend on a cohort only through its 32 cell counts.
`rr_cells` runs that pipeline on an (R, 32) array of counts, one cohort
or bootstrap replicate per row, in two stages (`weight_cells`,
`outcome_cells`) over blocks of BLOCK_ROWS rows.  A model sees the cells
only through their (design row, response) pairs: the four treatment
models have 4, 2, 16 and 4 distinct pairs and the outcome model 8.  So
each model is one `fit_batched` call on those groups, weighted by the
total count (or outcome-model cell weight) of each group's cells, the
grouped binomial likelihood whose sufficient statistics these totals
are.  Fitted probabilities and every status rule stay on the 32 cells.
Each row's result depends only on that row.
"""
from __future__ import annotations

import collections

import numpy as np

FIT_TOL = 1e-8
FIT_MAX_ITER = 100
SEPARATION_BOUND = 30.0
POSITIVITY_FLOOR = 1e-6
BOUNDARY_FLOOR = 1e-8

# fit statuses
FIT_CONVERGED = 0
FIT_MAXITER = 1
FIT_SINGULAR = 2

# pipeline statuses; OK is usable, every other code is a failure
REP_OK = 0
REP_ARM_MISSING = 2
REP_POSITIVITY = 3
REP_SINGULAR = 4
REP_SEPARATED = 5
REP_DEGENERATE = 6

N_CELLS = 32

# cell c holds the history whose bits, most significant first, are
# (l0, a0, l1, a1, y); see cell_ids
_CELL_BITS = ((np.arange(N_CELLS)[:, None] >> np.arange(4, -1, -1)) & 1).astype(np.float64)
_L0, _A0, _L1, _A1, _Y = _CELL_BITS.T
_ONE = np.ones(N_CELLS)
_X_D0 = np.column_stack([_ONE, _L0])
_X_N0 = _ONE[:, None]
_X_D1 = np.column_stack([_ONE, _A0, _L0, _L1])
_X_N1 = np.column_stack([_ONE, _A0])
_X_M = np.column_stack([_ONE, _A0, _A1])
# (design, treatment) of the denominator and numerator models at each time
_TREATMENT_MODELS = ((_X_D0, _A0), (_X_N0, _A0), (_X_D1, _A1), (_X_N1, _A1))


def _groups(x, y):
    # the distinct (design row, response) pairs of a 0/1 design over the
    # 32 cells: (cells (k, g), design (g, d), response (g,)), where group
    # j holds cells[:, j].  Every group has the same k = 32 / g cells,
    # since the cell bits a model does not read take every value.
    key = np.sum(np.column_stack([x, y]).astype(np.int64) << np.arange(x.shape[1] + 1), axis=1)
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    return order.reshape(first.size, -1).T, x[order[first]], y[order[first]]


_TREATMENT_GROUPS = tuple(_groups(x, arm) for x, arm in _TREATMENT_MODELS)
_MSM_GROUPS = _groups(_X_M, _Y)


def cell_ids(l0, a0, l1, a1, y) -> np.ndarray:
    """Cell index 0..31 of each subject's binary history, as uint8, one
    byte per subject, built in place."""
    out = np.zeros(np.shape(y), dtype=np.uint8)
    for b in (l0, a0, l1, a1, y):
        out <<= 1
        out |= np.asarray(b, dtype=np.uint8)
    return out


def count_cells(cells) -> np.ndarray:
    """(32,) int64 counts of uint8 cell ids, summed over SUBJECT_BLOCK ids
    at a time, so bincount's intp copy of its input is one block long;
    up to SUBJECT_BLOCK ids it is one bincount call."""
    counts = np.bincount(cells[:SUBJECT_BLOCK], minlength=N_CELLS)
    for start in range(SUBJECT_BLOCK, cells.shape[0], SUBJECT_BLOCK):
        counts += np.bincount(cells[start:start + SUBJECT_BLOCK], minlength=N_CELLS)
    return counts


def _chol_solve_batched(h, g):
    # symmetric positive-definite solves of a stack, h (R, d, d), g (R, d),
    # with an explicit rank flag: a pivot at or below 1e-10 * (1 + |h_jj|)
    # marks the row singular.  Every row runs the same operations in the
    # same order, so a row's result does not depend on the rest of the
    # stack.  Returns (x, ok) with x zero where not ok.
    reps, d = g.shape
    low = np.zeros((reps, d, d))
    ok = np.ones(reps, dtype=bool)
    for j in range(d):
        s = h[:, j, j].copy()
        for k in range(j):
            s -= low[:, j, k] * low[:, j, k]
        ok &= ~(s <= 1e-10 * (1.0 + np.abs(h[:, j, j])))
        low[:, j, j] = np.sqrt(np.where(ok, s, 1.0))
        for i in range(j + 1, d):
            t = h[:, i, j].copy()
            for k in range(j):
                t -= low[:, i, k] * low[:, j, k]
            low[:, i, j] = t / low[:, j, j]
    x = np.zeros((reps, d))
    for i in range(d):
        t = g[:, i].copy()
        for k in range(i):
            t -= low[:, i, k] * x[:, k]
        x[:, i] = t / low[:, i, i]
    for i in range(d - 1, -1, -1):
        t = x[:, i].copy()
        for k in range(i + 1, d):
            t -= low[:, k, i] * x[:, k]
        x[:, i] = t / low[:, i, i]
    x[~ok] = 0.0
    return x, ok


def expit(x):
    """Plain logistic function 1 / (1 + exp(-x)) of a float array, computed
    in one new array; the cohort generator's draws and the fitted
    probabilities depend on its exact bits."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _expit(eta):
    # the Newton iterations' expit: exp of a nonpositive argument cannot
    # overflow, so no overflow RuntimeWarning reaches the CLI's stderr
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loglik(w, y, eta):
    # weighted Bernoulli log-likelihood summed over the last axis (+= saves a temporary)
    t = np.log1p(np.exp(-np.abs(eta)))
    t += np.maximum(eta, 0.0)
    return np.sum(w * (y * eta - t), axis=-1)


def _linear(beta, x):
    # beta (R, d), x (m, d) -> (R, m), summed column by column in a fixed
    # order so a row's result does not depend on the rest of the batch
    out = beta[:, :1] * x[:, 0]
    for k in range(1, x.shape[1]):
        out = out + beta[:, k : k + 1] * x[:, k]
    return out


def _gram(v, x):
    # v (R, m), x (m, d) -> (R, d): sum over m of v * x[:, k]
    return np.stack([np.sum(v * x[:, k], axis=1) for k in range(x.shape[1])], axis=1)


def fit_batched(x, y, w):
    """Fit one logistic design under R weight vectors at once.

    x is the (m, d) design and y the (m,) binary response shared by all
    replicates; w is (R, m), one row of nonnegative weights per
    replicate.  Each row runs damped Newton on its weighted Bernoulli
    log-likelihood with its own convergence test (max |gradient| below
    FIT_TOL), step-halving that keeps the likelihood from decreasing (up
    to 30 halvings) and status; a replicate leaves the batch as soon as it
    stops, at the latest after FIT_MAX_ITER steps.  Returns
    (beta (R, d), iterations (R,), max |gradient| (R,), status (R,)).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    reps, d = w.shape[0], x.shape[1]
    beta_out = np.zeros((reps, d))
    iters = np.full(reps, FIT_MAX_ITER, dtype=np.int64)
    gmax_out = np.zeros(reps)
    status = np.full(reps, FIT_MAXITER, dtype=np.int64)
    live = np.arange(reps)
    beta = np.zeros((reps, d))
    eta = np.zeros(w.shape)
    ll = _loglik(w, y, eta)

    for it in range(FIT_MAX_ITER):
        if live.size == 0:
            break
        mu = _expit(eta)
        grad = _gram(w * (y - mu), x)
        gmax = np.max(np.abs(grad), axis=1)
        curv = w * mu * (1.0 - mu)
        hess = np.empty((live.size, d, d))
        for i in range(d):
            for j in range(i + 1):
                hess[:, i, j] = hess[:, j, i] = np.sum(curv * (x[:, i] * x[:, j]), axis=1)
        del mu, curv  # free two (R, m) arrays before the step-halving peak
        step, solved = _chol_solve_batched(hess, grad)
        # each row's stop code if it takes no step: FIT_MAXITER means out
        # of halvings, and -1 marks a row that took one and stays live
        stop = np.select([gmax < FIT_TOL, ~solved], [FIT_CONVERGED, FIT_SINGULAR], FIT_MAXITER)
        # step-halving: every pending replicate tries scales 1, 1/2, ...;
        # an accepted trial replaces its row's iterate in place
        pending = np.flatnonzero(stop == FIT_MAXITER)
        scale = 1.0
        for _ in range(30):
            if pending.size == 0:
                break
            b = beta[pending] + scale * step[pending]
            e = _linear(b, x)
            lp = _loglik(w[pending], y, e)
            ref = ll[pending]
            accept = lp >= ref - 1e-12 * (1.0 + np.abs(ref))
            took = pending[accept]
            beta[took], eta[took], ll[took] = b[accept], e[accept], lp[accept]
            stop[took] = -1
            pending = pending[~accept]
            scale *= 0.5
        done = stop >= 0
        out = live[done]
        beta_out[out], gmax_out[out], status[out] = beta[done], gmax[done], stop[done]
        iters[out] = it
        keep = ~done
        live, beta, eta, ll, w = live[keep], beta[keep], eta[keep], ll[keep], w[keep]

    if live.size:
        gmax = np.max(np.abs(_gram(w * (y - _expit(eta)), x)), axis=1)
        beta_out[live] = beta
        gmax_out[live] = gmax
        status[live] = np.where(gmax < FIT_TOL, FIT_CONVERGED, FIT_MAXITER)
    return beta_out, iters, gmax_out, status


def _fit_groups(groups, w):
    # fit_batched on the total weight of each group, w (R, 32): members
    # added one at a time in a fixed order, not by a matrix product, so a
    # row's totals do not depend on the rest of the batch
    cells, x, y = groups
    total = w[:, cells[0]]
    for more in cells[1:]:
        total = total + w[:, more]
    return fit_batched(x, y, total)


def _prob(beta, x, arm):
    # fitted probability of the treatment each cell received
    p = expit(_linear(beta, x))
    return np.where(arm == 1.0, p, 1.0 - p)


def weight_cells(counts):
    """Stabilized weight sw (R, 32) of each cell and status (R,) of each
    row of counts (R, 32), from the four treatment models.  sw is NaN in a
    failed row and may be 0 or inf in an empty cell.  First match wins: a
    missing treatment arm, a singular fit, a coefficient beyond
    SEPARATION_BOUND, a fitted treatment probability below
    POSITIVITY_FLOOR in an occupied cell.  A fit stopped before
    convergence (FIT_MAXITER) is usable."""
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum(axis=1)
    treated = np.stack([c[:, _A0 == 1.0].sum(axis=1), c[:, _A1 == 1.0].sum(axis=1)])
    live = np.flatnonzero(np.all((treated > 0.0) & (treated < n), axis=0))
    cl = c[live]
    fits = [_fit_groups(g, cl) for g in _TREATMENT_GROUPS]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pd0a, pn0a, pd1a, pn1a = (_prob(f[0], *m) for f, m in zip(fits, _TREATMENT_MODELS))
        sw_live = (pn0a / pd0a) * (pn1a / pd1a)
    fit_status = np.array([f[3] for f in fits])
    floor = np.where(cl > 0.0, np.minimum(pd0a, pd1a), np.inf).min(axis=1, initial=np.inf)
    st = np.select([
        np.any(fit_status == FIT_SINGULAR, axis=0),
        np.any([np.max(np.abs(f[0]), axis=1) > SEPARATION_BOUND for f in fits], axis=0),
        floor < POSITIVITY_FLOOR,
    ], [REP_SINGULAR, REP_SEPARATED, REP_POSITIVITY], REP_OK)
    status = np.full(c.shape[0], REP_ARM_MISSING)
    status[live] = st
    sw = np.full(c.shape, np.nan)
    sw[live[st == REP_OK]] = sw_live[st == REP_OK]
    return sw, status


def _constant_outcome(w):
    # rows of nonnegative cell weights or counts (R, 32) that put no
    # weight on one of the two outcomes
    return ~np.any(w[:, _Y == 1.0] > 0.0, axis=1) | ~np.any(w[:, _Y == 0.0] > 0.0, axis=1)


def outcome_cells(weights):
    """Fit logit P(Y | A0, A1) = a + b*A0 + c*A1 on the cell weights
    (R, 32), summed over the cells of each (A0, A1, Y); return the
    always- and never-treated probabilities p11, p00 (NaN in a failed
    row) and status (R,).  First match wins: a constant outcome
    (separated), a singular fit, a coefficient beyond SEPARATION_BOUND, a
    probability within BOUNDARY_FLOOR of 0 or 1 (degenerate).  A fit
    stopped before convergence (FIT_MAXITER) is usable."""
    w = np.asarray(weights, dtype=np.float64)
    bm, _, _, st = _fit_groups(_MSM_GROUPS, w)
    with np.errstate(over="ignore"):
        p11 = expit(bm[:, 0] + bm[:, 1] + bm[:, 2])
        p00 = expit(bm[:, 0])
    lo, hi = np.minimum(p00, p11), np.maximum(p00, p11)
    status = np.select([
        _constant_outcome(w),
        st == FIT_SINGULAR,
        np.max(np.abs(bm), axis=1) > SEPARATION_BOUND,
        (lo < BOUNDARY_FLOOR) | (hi > 1.0 - BOUNDARY_FLOOR),
    ], [REP_SEPARATED, REP_SINGULAR, REP_SEPARATED, REP_DEGENERATE], REP_OK)
    p11[status != REP_OK] = np.nan
    p00[status != REP_OK] = np.nan
    return p11, p00, status


# rows fitted per weight_cells/outcome_cells call; caps rr_cells' working
# memory at a few (BLOCK_ROWS, 32) stage arrays (a grouped fit's arrays
# are at most half as wide), and 1024 keeps a 1000-replicate bootstrap
# plus its point estimate in one block
BLOCK_ROWS = 1024

# subjects per block of a cohort's generation, cell counts and CSV rows;
# caps their float temporaries and buffers at a few block-long arrays,
# and keeps a replication-sized cohort in one block
SUBJECT_BLOCK = 1 << 14

# rr_cells' result: (R,) risk ratio, status, p11 and p00, and (R, 32) sw
CellFit = collections.namedtuple("CellFit", "rr status p11 p00 sw")


def rr_cells(counts):
    """Stabilized-weight IPW risk ratio for each row of cell counts.

    counts is (R, 32): row r holds how many subjects of replicate r fall
    in each cell (see cell_ids).  Runs weight_cells, then outcome_cells
    on the weighted counts, BLOCK_ROWS rows at a time; returns a CellFit
    (rr, status, p11, p00, sw) with rr, p11, p00 NaN in failed rows.  A
    constant outcome fails as separated, checked after the treatment arms
    and before the treatment fits.
    """
    c = np.asarray(counts)
    if c.ndim != 2 or c.shape[1] != N_CELLS:
        raise ValueError(f"counts must have shape (R, {N_CELLS}), got {c.shape}")
    reps = c.shape[0]
    out = CellFit(np.empty(reps), np.empty(reps, dtype=np.int64), np.empty(reps),
                  np.empty(reps), np.empty((reps, N_CELLS)))
    for start in range(0, reps, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        for o, v in zip(out, _rr_block(np.asarray(c[rows], dtype=np.float64))):
            o[rows] = v
    return out


def _rr_block(c):
    # rr_cells on one block of float counts
    sw, status = weight_cells(c)
    status[(status != REP_ARM_MISSING) & _constant_outcome(c)] = REP_SEPARATED
    live = np.flatnonzero(status == REP_OK)
    # an empty cell may have a fitted probability of exactly 0 or 1 and
    # so sw = inf; it must carry weight 0, not 0 * inf = NaN
    with np.errstate(invalid="ignore"):
        wm = np.where(c[live] > 0.0, c[live] * sw[live], 0.0)
    p11, p00 = np.full((2, c.shape[0]), np.nan)
    p11[live], p00[live], status[live] = outcome_cells(wm)
    return CellFit(p11 / p00, status, p11, p00, sw)
