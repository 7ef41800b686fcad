"""Exception types shared across the package."""


class GradlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GradlabError):
    """Invalid construction arguments or config-file contents."""


class ShapeError(GradlabError):
    """Operands live on different bases or have mismatched lengths."""


class UnsupportedOperationError(GradlabError):
    """Operation not defined for this basis kind or resolution."""


class DivergenceError(GradlabError):
    """A loss or gradient evaluation produced a non-finite value."""


class ExpansionRejectedError(GradlabError):
    """An architecture expansion failed to open new directions.

    ``parameter_index`` names the offending new parameter.
    """

    def __init__(self, message, parameter_index=None):
        super().__init__(message)
        self.parameter_index = parameter_index
