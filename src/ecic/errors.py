"""Exception hierarchy shared across the package."""


class EcicError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(EcicError):
    """The requested field order is not a prime power."""


class CapExceeded(EcicError):
    """A configured size cap (field order, vertex count, ...) was exceeded."""


class BudgetExceeded(EcicError):
    """An enumeration or search exceeded its node/vector budget.

    Raised by the optimal-length scan, it also carries the bracket proved
    so far: every length below `infeasible_below` is infeasible, and
    `feasible_at` is feasible."""

    def __init__(
        self,
        message: str,
        nodes: int | None = None,
        infeasible_below: int | None = None,
        feasible_at: int | None = None,
    ):
        super().__init__(message)
        self.nodes = nodes
        self.infeasible_below = infeasible_below
        self.feasible_at = feasible_at


class NoSolution(EcicError):
    """A linear system has no solution at all."""


class WeightCapExceeded(EcicError):
    """No solution exists within the requested Hamming-weight cap."""


class MalformedDocument(EcicError):
    """An instance or matrix document failed to parse."""


class DemandInSideInfo(MalformedDocument):
    """A receiver demands a message it already holds."""


class IndexOutOfRange(EcicError):
    """A receiver or message index lies outside the declared ranges."""


class LengthMismatch(EcicError):
    """Vector/matrix dimensions are incompatible."""


class OutOfRegime(EcicError):
    """Requested MDS parameters outside the supported construction regimes."""


class InvalidInnerIC(EcicError):
    """The inner matrix of a concatenation is not a valid index code."""


class OuterDistanceTooSmall(EcicError):
    """The outer code of a concatenation cannot correct the requested errors."""


class UnknownCodeLength(EcicError):
    """Shortest-code length not settled within the search's node budget."""

    def __init__(self, q: int, k: int, d: int, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"shortest length for q={q}, k={k}, d={d} unknown{detail}")
        self.q, self.k, self.d = q, k, d


class InternalContradiction(EcicError):
    """An assertion the theory guarantees was violated (bug or invalid input)."""
