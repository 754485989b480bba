"""Exception types shared across the package, and the argument checks that raise them.

Public entry points take their counts, reals and points through ``_count``, ``_real``
and ``_points`` (the README's "Argument contract"): each returns a plain int, a plain
float or a new float64 array, or raises DomainError naming the argument, or
DimensionMismatchError for a point whose size another argument sets.  ``_instance``
checks a type; ``_check_budget`` sizes each request against the one ``_COEFF_BUDGET``.
"""

import math
import numbers

import numpy as np


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


def _scalar(value):
    """The element of a 0-d array; any other value as it is."""
    return value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value


def _real_number(value) -> bool:
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether value is an integer: any numbers.Integral, NumPy's included, but a bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(name, value, lo, hi=None):
    """value as an int, when it is an integer (a bool is not) in [lo, hi]."""
    value = _scalar(value)
    if not _is_integer(value) or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _real(name, value, lo=-math.inf, hi=math.inf, lo_open=False):
    """value as a float, when it is a finite real (a bool is not) in [lo, hi], or in
    (lo, hi] when ``lo_open``."""
    value = _scalar(value)
    try:
        x = float(value) if _real_number(value) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not ((lo < x if lo_open else lo <= x) and x <= hi and math.isfinite(x)):
        ends = "(" if lo_open or lo == -math.inf else "[", "]" if hi < math.inf else ")"
        raise DomainError(f"{name} must be a finite real in {ends[0]}{lo:g}, {hi:g}{ends[1]}, "
                          f"got {value!r}")
    return x


def _points(name, value, shape, mismatch=DomainError):
    """value as a new float64 array of finite reals (not bools) in ``shape``, None matching
    any length (a shape of None, any shape); a wrong shape raises ``mismatch`` (where
    another argument sets the size)."""
    spec = str(tuple("*" if n is None else n for n in shape or ())).replace("'", "")
    try:  # an array as it is; in sequences, every entry must be a real number and no bool
        arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
        if arr.dtype == object and all(_real_number(v) for v in arr.flat):
            arr = arr.astype(float)
    except (ValueError, OverflowError):  # ragged sequences, integers past the float range
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":  # bool, complex, str, object
        raise DomainError(f"{name} must be an array of finite reals"
                          + ("" if shape is None else f" of shape {spec}"))
    if shape is not None and (arr.ndim != len(shape)
                              or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise mismatch(f"{name} must have shape {spec}, got shape {arr.shape}")
    arr = arr.astype(float, order="C")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _instance(name, value, cls):
    """value, when it is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIO" else "a"  # a UnitaryPolicy
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


# most floats (1 GiB) that one request may hold: a larger request fails before it
# allocates instead of raising numpy's memory error
_COEFF_BUDGET = 2**27


def _check_budget(what: str, rows, dim=1, depth: int = 0) -> None:
    """Raise DomainError when the request ``what`` of rows x sum_{k <= depth} dim^k floats
    exceeds _COEFF_BUDGET (read at each call), or when depth exceeds its bit length.

    The depth bound comes first, so the sum has at most 29 terms, taken in Python
    integers, where numpy integers could wrap; for dim = 1 it also caps the O(depth^2)
    work of folding signature levels and of naming their words.
    """
    budget = _COEFF_BUDGET
    what = f"{what} of dimension {dim} at depth {depth}" if depth else what
    if depth > budget.bit_length():
        raise DomainError(f"{what} exceed the depth limit of {budget.bit_length()}, the bit "
                          "length of the budget")
    if int(rows) * sum(int(dim) ** k for k in range(depth + 1)) > budget:
        raise DomainError(f"{what} need more than the budget of {budget} floats")
