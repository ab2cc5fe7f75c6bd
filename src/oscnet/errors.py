"""Exception types shared across the package."""


class OscnetError(Exception):
    """Base class for every error raised by this package."""


class GraphSizeError(OscnetError, ValueError):
    """Vertex count or hypercube dimension outside the supported range."""


class EdgeListError(OscnetError, ValueError):
    """Malformed edge-list input.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class DefinitenessError(OscnetError, ValueError):
    """A matrix that must be positive definite is not (or is numerically
    indistinguishable from singular)."""


class SchemeError(OscnetError, ValueError):
    """Named partition scheme is unknown or incompatible with the dimension."""


class SingularityError(OscnetError, ValueError):
    """A mode parameter hit a non-normalizable regime (coupling ratio at or
    beyond 1, or a vanishing recursion denominator)."""


class DomainError(OscnetError, ValueError):
    """Numeric argument lies outside the mathematical domain of an operation."""


class ConsistencyError(OscnetError, ArithmeticError):
    """A computed quantity violates an exact constraint by more than roundoff
    (for example a symplectic eigenvalue falling measurably below 1)."""
