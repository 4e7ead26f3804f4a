"""Per-row references for the batched fitting engine, the cohort CSV reader
and the batched stream seeding.

`fit_logistic` is damped Newton on one model with the scalar Cholesky
solver `_chol_solve`, the loop the package ran per fit before every fit
moved to `_kernels.fit_batched`.  `per_row_weights` and `per_row_rr` are
the weight-and-fit pipeline written on one array element per subject, as
the package computed it before every estimate moved to the 32 cell
counts: four treatment fits and the weighted outcome fit, each run by
this reference fit on n rows.  Tests compare the engine against them;
only the summation order differs, so the two agree to floating-point
roundoff.  `ungrouped_fits` fits each of the five models on all 32
cells, as the stages did before each model was fitted on its distinct
(design row, response) groups.  `read_cohort_rows` is the cohort CSV
reader as the package ran it before the columnar `Cohort`: csv.reader
and one row at a time, empty rows skipped.  `stream` and `child_seed` build
one stream or child seed through numpy's own SeedSequence, the path the
package took before every stream was seeded from a row of `_rng.states`.
`OFF_CALIBRATION_ROWS` is a shared fixture cohort.
"""
import csv
import warnings

import numpy as np

from evtv._kernels import (
    FIT_CONVERGED,
    FIT_MAX_ITER,
    FIT_MAXITER,
    FIT_SINGULAR,
    FIT_TOL,
    POSITIVITY_FLOOR,
    _TREATMENT_MODELS,
    _X_M,
    _Y,
    _expit,
    _loglik,
    fit_batched,
)
from evtv.estimation import Cohort, PositivityViolation, SingularDesign
from evtv.report import COHORT_COLUMNS, EmptyFile, MissingColumn, NonBinaryValue


# 16 subjects as (l0, a0, l1, a1, y) rows: every fit converges with
# coefficients below 2.1 in magnitude, yet the mean stabilized weight is
# 1.678, outside the [0.8, 1.2] calibration band
OFF_CALIBRATION_ROWS = (
    [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1)] + [(0, 0, 0, 1, 1)] * 2 + [(0, 0, 1, 0, 0)] * 2
    + [(0, 1, 0, 1, 0), (0, 1, 0, 1, 1)] + [(0, 1, 1, 1, 0)] * 2
    + [(1, 0, 1, 1, 1), (1, 1, 0, 1, 0)] + [(1, 1, 1, 0, 0)] * 2 + [(1, 1, 1, 0, 1)] * 2
)


def cohort_from_rows(rows) -> Cohort:
    """A Cohort from (l0, a0, l1, a1, y) rows."""
    return Cohort(*np.array(rows, dtype=np.int64).reshape(-1, 5).T)


def cohort_rows(cohort: Cohort) -> list[tuple[int, ...]]:
    """The (l0, a0, l1, a1, y) rows of a Cohort, as Python ints."""
    return [tuple(r) for r in np.column_stack(cohort.columns).tolist()]


def float_columns(cohort: Cohort):
    """(l0, a0, l1, a1, y) as float arrays."""
    return tuple(c.astype(np.float64) for c in cohort.columns)


def _open_source(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8-sig", newline=""), True


def read_cohort_rows(source):
    """Parse a cohort CSV into (l0, a0, l1, a1, y) rows of ints, one
    csv.reader row at a time; raises and warns as read_cohort_csv does."""
    stream, owned = _open_source(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile("cohort CSV has no header row") from None
        names = [h.lstrip("\ufeff").strip().lower() for h in header]
        missing = [c for c in COHORT_COLUMNS if c not in names]
        if missing:
            raise MissingColumn(f"cohort CSV is missing columns: {', '.join(missing)}")
        twice = [c for c in COHORT_COLUMNS if names.count(c) > 1]
        if twice:
            raise ValueError(f"cohort CSV repeats column {twice[0]}")
        extra = [h for h in names if h not in COHORT_COLUMNS]
        if extra:
            warnings.warn(
                f"ignoring extra cohort CSV columns: {', '.join(extra)}",
                UserWarning,
                stacklevel=2,
            )
        positions = [names.index(c) for c in COHORT_COLUMNS]
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"row {rownum}: expected {len(names)} cells, got {len(row)}"
                )
            values = []
            for col, pos in zip(COHORT_COLUMNS, positions):
                cell = row[pos].strip()
                if cell not in ("0", "1"):
                    raise NonBinaryValue(
                        f"row {rownum}, column {col}: {cell!r} is not 0 or 1"
                    )
                values.append(int(cell))
            rows.append(tuple(values))
        if not rows:
            raise EmptyFile("cohort CSV has no data rows")
        return rows
    finally:
        if owned:
            stream.close()


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


def fit_logistic(x, y, w, tol, max_iter):
    """Damped Newton on the weighted Bernoulli log-likelihood of one model.

    Step-halving keeps the likelihood from decreasing.  Returns
    (beta, iterations, max |gradient|, FIT_* status).
    """
    n, d = x.shape
    beta = np.zeros(d)
    eta = np.zeros(n)
    ll = _loglik(w, y, eta)
    for it in range(max_iter):
        mu = _expit(eta)
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
            cand_ll = _loglik(w, y, cand_eta)
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        else:
            return beta, it, gmax, FIT_MAXITER
        beta = cand
        eta = cand_eta
        ll = cand_ll
    gmax = np.max(np.abs(x.T @ (w * (y - _expit(eta)))))
    status = FIT_CONVERGED if gmax < tol else FIT_MAXITER
    return beta, max_iter, gmax, status


# the five models' (design, response) over the 32 cells: four treatment
# models, then the outcome model
CELL_MODELS = _TREATMENT_MODELS + ((_X_M, _Y),)


def ungrouped_fits(counts, weights):
    """fit_batched results of the five models, each on all 32 cells: the
    four treatment models on counts and the outcome model on weights,
    both (R, 32)."""
    return [fit_batched(x, y, w) for (x, y), w in zip(CELL_MODELS, [counts] * 4 + [weights])]


def _plain_expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _coefficients(x, y, w=None):
    w = np.ones(y.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
    beta, _, _, status = fit_logistic(x, y, w, FIT_TOL, FIT_MAX_ITER)
    if status == FIT_SINGULAR:
        raise SingularDesign("design matrix is collinear on the observed data")
    return beta


def per_row_weights(cohort):
    """Per-subject stabilized weights from four per-row logistic fits."""
    l0, a0, l1, a1, _ = float_columns(cohort)
    for arm in (a0, a1):
        if arm.min() == arm.max():
            raise PositivityViolation("only one treatment arm present")
    ones = np.ones(l0.shape[0])
    probs = []
    for x, arm in (
        (np.column_stack([ones, l0]), a0),
        (ones[:, None], a0),
        (np.column_stack([ones, a0, l0, l1]), a1),
        (np.column_stack([ones, a0]), a1),
    ):
        p = _plain_expit(x @ _coefficients(x, arm))
        probs.append(np.where(arm == 1.0, p, 1.0 - p))
    pd0a, pn0a, pd1a, pn1a = probs
    if min(pd0a.min(), pd1a.min()) < POSITIVITY_FLOOR:
        raise PositivityViolation("fitted treatment probability below the floor")
    return (pn0a / pd0a) * (pn1a / pd1a)


def per_row_rr(cohort, weights=None):
    """(rr_obs, p11, p00) of the weighted outcome model fitted on n rows."""
    _, a0, _, a1, y = float_columns(cohort)
    w = per_row_weights(cohort) if weights is None else weights
    c = _coefficients(np.column_stack([np.ones(y.shape[0]), a0, a1]), y, w)
    p11 = float(_plain_expit(c[0] + c[1] + c[2]))
    p00 = float(_plain_expit(c[0]))
    return p11 / p00, p11, p00


def stream(seed: int, domain: int, tag: int) -> np.random.Generator:
    """The generator addressed by (seed, domain, tag): PCG64 seeded by
    np.random.SeedSequence((seed, domain, tag)), as default_rng builds it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, domain, tag))))


def child_seed(seed: int, domain: int, index: int) -> int:
    """The 64-bit child seed (seed, domain, index), e.g. one per replication."""
    state = np.random.SeedSequence((seed, domain, index)).generate_state(1, np.uint64)
    return int(state[0])
