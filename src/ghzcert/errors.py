"""Exception types shared across the package."""


class GhzError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GhzError, ValueError):
    """Matrix dimensions are incompatible with the requested operation."""


class InvalidLevelsError(GhzError, ValueError):
    """A level count or party list violates its preconditions."""


class ParityError(GhzError, ValueError):
    """A parity precondition is violated: an odd KS level count, or a party
    count of the wrong parity for a proof-set construction."""


class PartyMismatchError(GhzError, ValueError):
    """Two words or operators do not share the same party layout."""


class SearchBoundError(GhzError, ValueError):
    """An enumeration would exceed the configured search bound."""


class NonCommutingSetError(GhzError, ValueError):
    """An operation that requires mutually commuting words received a set
    containing a non-commuting pair."""


class NoGhzStateError(GhzError):
    """No simultaneous eigenvector satisfies the eligibility conditions."""


class UsageError(GhzError, ValueError):
    """A command-line value is malformed or has the wrong length."""


class CertificateError(GhzError, ValueError):
    """A certificate file is malformed or violates its schema."""
