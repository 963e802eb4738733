"""Exception types shared across the package."""


class StratumError(Exception):
    """Base class for all liestrata errors."""


class IndexOutOfRangeError(StratumError):
    """A triple entry lies outside [1, n]."""


class OrderViolationError(StratumError):
    """A triple violates the ordering constraints of its mode."""


class DuplicateTripleError(StratumError):
    """An index set contains the same triple twice."""


class ModeError(StratumError):
    """An operation that needs i < j < k received an upsilon-mode index set."""


class MalformedInputError(StratumError):
    """An input document does not have the expected shape."""


class DimensionMismatchError(StratumError):
    """Vector or matrix dimensions do not agree."""


class NotAlignedError(StratumError):
    """The two triples do not form an aligned pair."""


class OutsideDomainError(StratumError):
    """Parameters leave the positivity domain of a cross section."""


class UnsupportedShapeError(StratumError):
    """A branch system is beyond the supported linear/quadratic fixture scale."""


class CapExceededError(StratumError):
    """A request exceeds one of the fixed enumeration bounds."""
