"""Exceptions and warnings of the estimation stack.

They live apart from `estimation`, which re-exports them, so that code
catching them (the CLI's exit-3 clause, for one) imports no numpy.
"""


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
