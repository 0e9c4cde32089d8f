"""Exception types shared across the package."""


class CkleError(Exception):
    """Base class for all package errors."""


class DataError(CkleError):
    """Bad input data: empty, non-finite, or degenerate samples."""


class ParseError(DataError):
    """Input that cannot be read as a sample: an unreadable file, a token
    that is not a number, no values at all, or a non-finite value."""


class DomainError(CkleError):
    """Parameter value outside the family's declared open domain."""


class SupportViolation(CkleError):
    """An observation lies where the model assigns zero CDF mass on the
    negative axis, so the objective is +inf at these parameters."""


class InferenceError(CkleError):
    """Asymptotic-inference failure: divergent variance integral, singular
    information matrix, or an undefined limit."""
