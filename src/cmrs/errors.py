"""Exception hierarchy shared across the package."""


class CmrsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CmrsError, ValueError):
    """Evaluation requested outside the valid domain (e.g. Re z <= 0)."""


class EvaluationError(CmrsError):
    """A transform evaluation produced an invalid value (non-finite,
    non-real on the real axis, or outside a guaranteed range)."""


class ModelSpecError(CmrsError, ValueError):
    """A model specification violates its constructor contract."""


class InversionError(CmrsError):
    """Numerical Laplace inversion could not be carried out."""


class SingularMatrixError(CmrsError):
    """A matrix-exponential solve refused at a node: a pivot below the
    singularity threshold or a residual above its bound."""


class OracleError(CmrsError):
    """A ground-truth oracle refused its inputs or its truncation budget."""


class SamplingError(CmrsError):
    """Monte Carlo sampling is unsupported or degenerate for the request."""


class ConfigError(CmrsError, ValueError):
    """Run configuration could not be parsed or validated."""
