"""Exceptions and warnings of the estimation stack, and the size check
behind every size cap.

They live apart from `estimation`, which re-exports them, so that code
catching them (the CLI's exit-3 clause, for one) imports no numpy.
"""


def check_size(value, name: str, low: int, cap_name: str, cap: int) -> int:
    """value as an int from low to cap; out of range is a ValueError naming the cap."""
    n = int(value)
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if n > cap:
        raise ValueError(f"{name} must be <= {cap_name} ({cap}), got {n}")
    return n


class EstimationError(Exception):
    """Base class for estimation failures."""


class SingularDesign(EstimationError):
    """Design matrix is collinear on the observed data."""


class PositivityViolation(EstimationError):
    """A treatment arm is empty or a fitted treatment probability is degenerate."""


class BootstrapFailure(EstimationError):
    """Too many bootstrap replicates failed to produce an estimate."""


class SeparationWarning(UserWarning):
    """The likelihood maximum lies at infinite coefficients."""


class WeightDiagnosticWarning(UserWarning):
    """Mean stabilized weight far from 1, suggesting model misspecification."""
