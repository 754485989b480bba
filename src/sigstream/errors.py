"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live over different base dimensions (or incompatible shapes)."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (e.g. nonzero scalar term for exp)."""


class OutOfDepthError(ValueError):
    """A word or pairing exceeds the truncation depth of a tensor."""


class NotALieElementError(ValueError):
    """Tensor failed the Lie-membership residual test during basis projection."""

    def __init__(self, message, level=None, residual=None):
        super().__init__(message)
        self.level = level
        self.residual = residual


class CapabilityError(ValueError):
    """Requested bracket degree exceeds the declared smoothness of a field system."""


class DivergenceError(RuntimeError):
    """State became non-finite during ODE integration."""

    def __init__(self, message, substep=None):
        super().__init__(message)
        self.substep = substep


class StreamParseError(ValueError):
    """Malformed stream CSV; message names the offending row."""


class DegenerateReportError(ValueError):
    """Classification report requested on single-class data."""


class TimeCapError(RuntimeError):
    """Monte Carlo paths were still running when the simulated time cap ran out."""
