"""Numerical kernels behind the estimation engine.

Two plain-numpy engines share one Newton step rule (the `_chol_solve`
pivot test, FIT_TOL, FIT_MAX_ITER and the log-likelihood acceptance
test):

- `fit_logistic` fits one model on per-row data; the point estimate in
  `estimation` uses it.
- `fit_batched` fits one design under R weight vectors at once, with
  per-replicate masks for convergence, step-halving and status.

Every subject of the two-timepoint design is one of 2**5 = 32 binary
histories (l0, a0, l1, a1, y), so all five models of the weight-and-fit
pipeline depend on a cohort only through its 32 cell counts.
`rr_cells` runs that pipeline on an (R, 32) array of counts, one
bootstrap replicate per row, with one `fit_batched` call per model.
Each replicate's result depends only on its own row.
"""
from __future__ import annotations

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

# per-replicate pipeline statuses; OK and NOT_CONVERGED carry usable estimates
REP_OK = 0
REP_NOT_CONVERGED = 1
REP_ARM_MISSING = 2
REP_POSITIVITY = 3
REP_SINGULAR = 4
REP_SEPARATED = 5
REP_DEGENERATE = 6

REP_NAMES = {
    REP_OK: "ok",
    REP_NOT_CONVERGED: "not converged",
    REP_ARM_MISSING: "arm missing",
    REP_POSITIVITY: "positivity",
    REP_SINGULAR: "singular",
    REP_SEPARATED: "separated",
    REP_DEGENERATE: "degenerate",
}

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


def cell_ids(l0, a0, l1, a1, y) -> np.ndarray:
    """Cell index 0..31 of each subject's binary history."""
    bits = (l0, a0, l1, a1, y)
    out = np.zeros(np.shape(y), dtype=np.int64)
    for b in bits:
        out = 2 * out + np.asarray(b, dtype=np.int64)
    return out


def _chol_solve(h, g):
    # symmetric positive-definite solve with an explicit rank flag
    d = h.shape[0]
    low = np.zeros((d, d))
    for j in range(d):
        s = h[j, j]
        for k in range(j):
            s -= low[j, k] * low[j, k]
        if s <= 1e-10 * (1.0 + abs(h[j, j])):
            return np.zeros(d), False
        low[j, j] = np.sqrt(s)
        for i in range(j + 1, d):
            t = h[i, j]
            for k in range(j):
                t -= low[i, k] * low[j, k]
            low[i, j] = t / low[j, j]
    x = np.zeros(d)
    for i in range(d):
        t = g[i]
        for k in range(i):
            t -= low[i, k] * x[k]
        x[i] = t / low[i, i]
    for i in range(d - 1, -1, -1):
        t = x[i]
        for k in range(i + 1, d):
            t -= low[k, i] * x[k]
        x[i] = t / low[i, i]
    return x, True


def _chol_solve_batched(h, g):
    # _chol_solve on a stack: h (R, d, d), g (R, d); same operations in
    # the same order for every replicate, so each row matches the scalar
    # solver bit for bit.  Returns (x, ok) with x zero where not ok.
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


def _expit(eta):
    # two-branch expit: exp of a nonpositive argument cannot overflow
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loglik(w, y, eta):
    # weighted Bernoulli log-likelihood, summed over the last axis
    return np.sum(
        w * (y * eta - (np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0))), axis=-1
    )


def fit_logistic(x, y, w, tol, max_iter):
    """Damped Newton on the weighted Bernoulli log-likelihood of one model.

    Step-halving keeps the likelihood from decreasing.  Returns
    (beta, iterations, max |gradient|, FIT_* status).
    """
    # the likelihood and expit are written out here, not taken from
    # _loglik/_expit: on n=1e5 cohorts the helpers' order of temporary
    # allocations raised the process's peak RSS by about 3 MB
    n, d = x.shape
    beta = np.zeros(d)
    eta = np.zeros(n)
    ll = np.sum(w * (y * eta - (np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0))))
    for it in range(max_iter):
        e = np.exp(-np.abs(eta))
        mu = np.where(eta >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        grad = x.T @ (w * (y - mu))
        gmax = np.max(np.abs(grad))
        if gmax < tol:
            return beta, it, gmax, FIT_CONVERGED
        curv = w * mu * (1.0 - mu)
        hess = (x * curv.reshape(-1, 1)).T @ x
        step, ok = _chol_solve(hess, grad)
        if not ok:
            return beta, it, gmax, FIT_SINGULAR
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_eta = x @ cand
            cand_ll = np.sum(
                w
                * (
                    y * cand_eta
                    - (np.log1p(np.exp(-np.abs(cand_eta))) + np.maximum(cand_eta, 0.0))
                )
            )
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        else:
            return beta, it, gmax, FIT_MAXITER
        beta = cand
        eta = cand_eta
        ll = cand_ll
    e = np.exp(-np.abs(eta))
    mu = np.where(eta >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    grad = x.T @ (w * (y - mu))
    gmax = np.max(np.abs(grad))
    status = FIT_CONVERGED if gmax < tol else FIT_MAXITER
    return beta, max_iter, gmax, status


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


def fit_batched(x, y, w, tol=FIT_TOL, max_iter=FIT_MAX_ITER):
    """Fit one logistic design under R weight vectors at once.

    x is the (m, d) design and y the (m,) binary response shared by all
    replicates; w is (R, m), one row of nonnegative weights per
    replicate.  Each row follows fit_logistic's damped Newton rule with
    its own convergence test, step-halving (up to 30 halvings) and
    status; a replicate leaves the batch as soon as it stops.  Returns
    (beta (R, d), iterations (R,), max |gradient| (R,), status (R,)).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    reps, d = w.shape[0], x.shape[1]
    beta_out = np.zeros((reps, d))
    iters = np.full(reps, max_iter, dtype=np.int64)
    gmax_out = np.zeros(reps)
    status = np.full(reps, FIT_MAXITER, dtype=np.int64)
    live = np.arange(reps)
    beta = np.zeros((reps, d))
    eta = np.zeros(w.shape)
    ll = _loglik(w, y, eta)

    def finish(mask, it, gmax, code):
        done = live[mask]
        beta_out[done] = beta[mask]
        iters[done] = it
        gmax_out[done] = gmax[mask]
        status[done] = code

    for it in range(max_iter):
        if live.size == 0:
            break
        mu = _expit(eta)
        grad = _gram(w * (y - mu), x)
        gmax = np.max(np.abs(grad), axis=1)
        converged = gmax < tol
        curv = w * mu * (1.0 - mu)
        hess = np.empty((live.size, d, d))
        for i in range(d):
            for j in range(i + 1):
                hess[:, i, j] = hess[:, j, i] = np.sum(curv * (x[:, i] * x[:, j]), axis=1)
        step, solved = _chol_solve_batched(hess, grad)
        singular = ~converged & ~solved
        # step-halving: every pending replicate tries scales 1, 1/2, ...
        cand = beta.copy()
        cand_eta = eta.copy()
        cand_ll = ll.copy()
        pending = np.flatnonzero(~converged & solved)
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
            cand[took] = b[accept]
            cand_eta[took] = e[accept]
            cand_ll[took] = lp[accept]
            pending = pending[~accept]
            scale *= 0.5
        stuck = np.zeros(live.size, dtype=bool)
        stuck[pending] = True
        finish(converged, it, gmax, FIT_CONVERGED)
        finish(singular, it, gmax, FIT_SINGULAR)
        finish(stuck, it, gmax, FIT_MAXITER)
        keep = ~(converged | singular | stuck)
        live = live[keep]
        beta, eta, ll, w = cand[keep], cand_eta[keep], cand_ll[keep], w[keep]

    if live.size:
        gmax = np.max(np.abs(_gram(w * (y - _expit(eta)), x)), axis=1)
        beta_out[live] = beta
        gmax_out[live] = gmax
        status[live] = np.where(gmax < tol, FIT_CONVERGED, FIT_MAXITER)
    return beta_out, iters, gmax_out, status


def rr_cells(counts):
    """Stabilized-weight IPW risk ratio for each row of cell counts.

    counts is (R, 32): row r holds how many subjects of replicate r fall
    in each cell (see cell_ids).  Fits the four treatment models, forms
    stabilized weights per cell, fits the weighted marginal outcome
    model and returns (rr (R,), status (R,)), rr NaN where the status
    is not REP_OK or REP_NOT_CONVERGED.  Checks run in this order: a
    missing treatment arm, a constant outcome (separated), a singular
    treatment fit, a treatment coefficient beyond SEPARATION_BOUND, a
    fitted treatment probability below POSITIVITY_FLOOR in an occupied
    cell, a singular or separated outcome fit, an outcome probability
    within BOUNDARY_FLOOR of 0 or 1 (degenerate), and last any fit that
    stopped before convergence.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != N_CELLS:
        raise ValueError(f"counts must have shape (R, {N_CELLS}), got {c.shape}")
    reps = c.shape[0]
    rr = np.full(reps, np.nan)
    status = np.full(reps, REP_OK, dtype=np.int64)
    n = c.sum(axis=1)
    sa0 = c[:, _A0 == 1.0].sum(axis=1)
    sa1 = c[:, _A1 == 1.0].sum(axis=1)
    sy = c[:, _Y == 1.0].sum(axis=1)
    status[(sa0 == 0.0) | (sa0 == n) | (sa1 == 0.0) | (sa1 == n)] = REP_ARM_MISSING
    status[(status == REP_OK) & ((sy == 0.0) | (sy == n))] = REP_SEPARATED

    live = np.flatnonzero(status == REP_OK)
    cl = c[live]
    fits = [
        fit_batched(x, resp, cl)
        for x, resp in ((_X_D0, _A0), (_X_N0, _A0), (_X_D1, _A1), (_X_N1, _A1))
    ]
    singular = np.any([f[3] == FIT_SINGULAR for f in fits], axis=0)
    separated = np.any([np.max(np.abs(f[0]), axis=1) > SEPARATION_BOUND for f in fits], axis=0)
    maxiter = np.any([f[3] == FIT_MAXITER for f in fits], axis=0)
    status[live[singular]] = REP_SINGULAR
    status[live[~singular & separated]] = REP_SEPARATED
    ok = ~singular & ~separated
    live, cl, maxiter = live[ok], cl[ok], maxiter[ok]
    (bd0, bn0, bd1, bn1) = (f[0][ok] for f in fits)

    def prob(beta, x, arm):
        p = 1.0 / (1.0 + np.exp(-_linear(beta, x)))
        return np.where(arm == 1.0, p, 1.0 - p)

    pd0a = prob(bd0, _X_D0, _A0)
    pd1a = prob(bd1, _X_D1, _A1)
    occupied = cl > 0.0
    floor = np.minimum(
        np.where(occupied, pd0a, np.inf).min(axis=1, initial=np.inf),
        np.where(occupied, pd1a, np.inf).min(axis=1, initial=np.inf),
    )
    positivity = floor < POSITIVITY_FLOOR
    status[live[positivity]] = REP_POSITIVITY
    ok = ~positivity
    live, cl, occupied, maxiter = live[ok], cl[ok], occupied[ok], maxiter[ok]
    with np.errstate(divide="ignore", invalid="ignore"):
        sw = (prob(bn0[ok], _X_N0, _A0) / pd0a[ok]) * (prob(bn1[ok], _X_N1, _A1) / pd1a[ok])
        # an empty cell may have a fitted probability of exactly 0 or 1
        # and so sw = inf; it must carry weight 0, not 0 * inf = NaN
        wm = np.where(occupied, cl * sw, 0.0)

    bm, _, _, st = fit_batched(_X_M, _Y, wm)
    status[live[st == FIT_SINGULAR]] = REP_SINGULAR
    separated = (st != FIT_SINGULAR) & (np.max(np.abs(bm), axis=1) > SEPARATION_BOUND)
    status[live[separated]] = REP_SEPARATED
    ok = (st != FIT_SINGULAR) & ~separated
    live, bm, maxiter = live[ok], bm[ok], maxiter[ok] | (st[ok] == FIT_MAXITER)
    p11 = 1.0 / (1.0 + np.exp(-(bm[:, 0] + bm[:, 1] + bm[:, 2])))
    p00 = 1.0 / (1.0 + np.exp(-bm[:, 0]))
    degenerate = (
        (p00 < BOUNDARY_FLOOR)
        | (p00 > 1.0 - BOUNDARY_FLOOR)
        | (p11 < BOUNDARY_FLOOR)
        | (p11 > 1.0 - BOUNDARY_FLOOR)
    )
    status[live[degenerate]] = REP_DEGENERATE
    good = ~degenerate
    status[live[good & maxiter]] = REP_NOT_CONVERGED
    rr[live[good]] = p11[good] / p00[good]
    return rr, status
