"""Exception and warning types shared across the toolkit."""


class GlaError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(GlaError):
    """An argument violates a documented precondition."""


class DimensionError(GlaError):
    """Shapes of two operands do not match."""


class MissingClassError(GlaError):
    """A class index has no labelled examples where every class is required."""

    def __init__(self, class_index: int):
        self.class_index = class_index
        super().__init__(f"no labelled examples for class {class_index}")


class OptimizationError(GlaError):
    """The prior optimizer produced a non-finite loss."""


class ConvergenceWarning(RuntimeWarning):
    """An iterative estimator stopped short of its tolerance; its last iterate is returned."""


class IdentifiabilityError(GlaError):
    """The transition matrix has no unique stationary distribution, so the
    prior it should identify is not determined."""


class ParseError(GlaError):
    """A data file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(GlaError):
    """A configuration document is malformed or contains unknown keys."""
