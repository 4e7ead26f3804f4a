"""Per-row reference for the cell-count estimator.

The weight-and-fit pipeline written on one array element per subject,
as the package computed it before every estimate moved to the 32 cell
counts: four treatment fits and the weighted outcome fit, each run by
the public fit_logistic on n rows.  Tests compare the cell-count engine
against it; only the summation order differs, so the two agree to
floating-point roundoff.
"""
import numpy as np

from evtv._kernels import POSITIVITY_FLOOR
from evtv.estimation import PositivityViolation, cohort_arrays, fit_logistic


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _design(*columns):
    return np.column_stack(columns)


def per_row_weights(cohort):
    """Per-subject stabilized weights from four per-row logistic fits."""
    l0, a0, l1, a1, _ = cohort_arrays(cohort)
    for arm in (a0, a1):
        if arm.min() == arm.max():
            raise PositivityViolation("only one treatment arm present")
    ones = np.ones(l0.shape[0])
    probs = []
    for x, arm in (
        (_design(ones, l0), a0),
        (_design(ones), a0),
        (_design(ones, a0, l0, l1), a1),
        (_design(ones, a0), a1),
    ):
        p = _expit(x @ np.asarray(fit_logistic(x, arm).coefficients))
        probs.append(np.where(arm == 1.0, p, 1.0 - p))
    pd0a, pn0a, pd1a, pn1a = probs
    if min(pd0a.min(), pd1a.min()) < POSITIVITY_FLOOR:
        raise PositivityViolation("fitted treatment probability below the floor")
    return (pn0a / pd0a) * (pn1a / pd1a)


def per_row_rr(cohort, weights=None):
    """(rr_obs, p11, p00) of the weighted outcome model fitted on n rows."""
    _, a0, _, a1, y = cohort_arrays(cohort)
    w = per_row_weights(cohort) if weights is None else weights
    c = fit_logistic(_design(np.ones(y.shape[0]), a0, a1), y, w).coefficients
    p11 = float(_expit(np.asarray(c[0] + c[1] + c[2])))
    p00 = float(_expit(np.asarray(c[0])))
    return p11 / p00, p11, p00
