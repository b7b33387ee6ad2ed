"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`G2JonesError`, so callers can catch one base class.  Schema and
parse failures carry enough detail (position, relation name, candidate
list) to be actionable without a traceback.
"""

from __future__ import annotations


class G2JonesError(Exception):
    """Base class for all errors raised by this package."""


class NotUnipotentError(G2JonesError):
    """A series matrix whose constant term is not the identity."""


class ValuationExceedsOrderError(G2JonesError):
    """All series coefficients vanish through the truncation order.

    The element may lie deeper in the filtration than the chosen order
    can see; retrying with a larger order is the usual fix.
    """

    def __init__(self, order: int, message: str | None = None):
        self.order = order
        super().__init__(message or f"matrix is the identity through order {order}")


class OddBoundaryError(G2JonesError):
    """Link patterns need an even number of boundary points."""


class IndexRangeError(G2JonesError):
    """Generator index outside the allowed range."""


class NoSolutionError(G2JonesError):
    """No normalization exponents satisfy the determinant constraint."""


class SearchExhaustedError(G2JonesError):
    """Every candidate in a search range failed validation."""

    def __init__(self, failures, message: str | None = None):
        self.failures = list(failures)
        super().__init__(message or f"no valid candidate among {len(self.failures)} tried")


class SchemaError(G2JonesError):
    """A document does not match the expected schema."""


class RelationFailureError(G2JonesError):
    """A defining relation fails for the supplied generators."""

    def __init__(self, relation: str, message: str | None = None):
        self.relation = relation
        super().__init__(message or f"relation failed: {relation}")


class DeterminantNotUnitSignError(G2JonesError):
    """Generator determinant is not the constant +1 or -1."""


class ParseError(G2JonesError):
    """Word expression could not be parsed."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")

    def located(self, where: str) -> "ParseError":
        """The same error, of the same class, with ``where`` before its message."""
        return type(self)(f"{where}: {self.message}", self.position)


class BadGeneratorError(ParseError):
    """Generator name outside c1..c5."""


class NotTorelliError(G2JonesError):
    """Word does not act trivially on homology."""


class Degree0NontrivialError(NotUnipotentError):
    """Constant term of a word's series is not the identity."""


class DepthMismatchError(G2JonesError):
    """Two words were expected to share a filtration depth but do not."""


class NotInvolutiveError(G2JonesError):
    """A degree-0 generator image fails to square to the identity."""


class GroupClosureError(G2JonesError):
    """Group closure exceeded the safety cap without terminating."""
