"""Exception types shared across the package (``DataError`` and
``DomainError`` are also ``ValueError``s), and the checks of the entry
points' arguments: each returns its value as a plain Python type or raises
``DomainError`` (``floats`` returns a float array, or raises the error it
is given).  A bool is never a number; numpy numbers are."""

import numbers

import numpy as np

_F64 = np.dtype(np.float64)


class CkleError(Exception):
    """Base class for all package errors."""


class DataError(CkleError, ValueError):
    """Bad input data: empty, non-finite, or degenerate samples."""


class ParseError(DataError):
    """Input that cannot be read as a sample: an unreadable file, a token
    that is not a number, data that are not one row of numbers, no values
    at all, or a non-finite value."""


class DomainError(CkleError, ValueError):
    """A parameter outside the family's open domain, or a bad argument."""


class SupportViolation(CkleError):
    """An observation lies where the model assigns zero CDF mass on the
    negative axis, so the objective is +inf at these parameters."""


class InferenceError(CkleError):
    """Asymptotic-inference failure: divergent variance integral, singular
    information matrix, or an undefined limit."""


def _number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def count(name: str, value, least: int = 1) -> int:
    """value, an integer of at least ``least``, as an int."""
    if not _number(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}")
    return int(value)


def seed(value) -> int:
    """value, a non-negative integer, as an int."""
    if not _number(value, numbers.Integral) or value < 0:
        raise DomainError(f"seed must be a non-negative integer, got {value!r}")
    return int(value)


def prob(name: str, value) -> float:
    """value, a number in (0, 1), as a float."""
    if not (_number(value) and 0.0 < value < 1.0):
        raise DomainError(f"{name} must be in (0, 1)")
    return float(value)


def real(name: str, value) -> float:
    """value, a real number (NaN and +-inf included), as a float."""
    if not _number(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def floats(what: str, value, row: bool = True, error=DomainError) -> np.ndarray:
    """value as a float array, 1-D where ``row`` (a number is a row of one),
    or ``error`` "{what} must be numbers, got ..." where numpy cannot read
    it as real floats, it is None (which numpy reads as NaN) or bools, or a
    row has more than one dimension."""
    if type(value) is np.ndarray and value.dtype is _F64 and (value.ndim == 1 or not row):
        return value                # what the general path returns, without its calls
    try:
        arr = np.asarray(value)
        arr = None if value is None or arr.dtype.kind in "bc" else arr.astype(float, copy=False)
    except (TypeError, ValueError):
        arr = None
    if arr is None or row and arr.ndim > 1:
        raise error(f"{what} must be numbers, got {value!r}")
    return arr.reshape(-1) if row else arr


def items(name: str, value, what: str, nonempty: bool = False) -> tuple:
    """value's items (at least one where ``nonempty``); ``what`` names them."""
    try:
        values = tuple(value)
    except TypeError:               # not iterable, or a 0-d array
        values = None
    if values is None or nonempty and not values:
        raise DomainError(f"{name} must be a {'nonempty ' * nonempty}sequence of {what}, "
                          f"got {value!r}")
    return values


def choice(what: str, value, names):
    """value, one of the strings ``names``."""
    if not (isinstance(value, str) and value in names):
        raise DomainError(f"unknown {what} {value!r}")
    return value
