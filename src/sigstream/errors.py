"""Exception types shared across the package, and the argument checks that raise them."""

import numbers


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


class NonFiniteResultError(ArithmeticError):
    """A computed result holds NaN or infinity, which its JSON output cannot carry."""


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


def _count(name, value, lo):
    """value as an int, when it is an integer (a bool is not) of at least lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)
