"""Exception hierarchy.

Every domain error carries a short ``kind`` string (the name surfaced by the
CLI) plus whatever witness data pinpoints the first violation.
"""

from __future__ import annotations


class AmalgamLabError(Exception):
    kind = "Error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return f"{self.kind}: {base}" if base else self.kind


# --- groups ---------------------------------------------------------------

class NotLatinSquare(AmalgamLabError):
    kind = "NotLatinSquare"


class NotAssociative(AmalgamLabError):
    kind = "NotAssociative"


class NoIdentity(AmalgamLabError):
    kind = "NoIdentity"


class NotASubgroup(AmalgamLabError):
    kind = "NotASubgroup"


class NotHomomorphism(AmalgamLabError):
    kind = "NotHomomorphism"


class NotInjective(AmalgamLabError):
    kind = "NotInjective"


# --- gog / DSL ------------------------------------------------------------

class GogSyntaxError(AmalgamLabError):
    """At a DSL line (``at`` an int), or at a named JSON entry such as
    ``"vertex v1"``, which has no line."""

    kind = "SyntaxError"

    def __init__(self, message: str, at: int | str, column: int = 0):
        where = at if isinstance(at, str) else f"line {at}, col {column}"
        super().__init__(f"{where}: {message}")
        self.line = None if isinstance(at, str) else at
        self.column = column


class UnknownGroupRef(AmalgamLabError):
    kind = "UnknownGroupRef"


class EmbeddingNotInjective(AmalgamLabError):
    kind = "EmbeddingNotInjective"


class EdgeGroupInfinite(AmalgamLabError):
    kind = "EdgeGroupInfinite"


class GraphDisconnected(AmalgamLabError):
    kind = "GraphDisconnected"


class EdgeIsLoop(AmalgamLabError):
    kind = "EdgeIsLoop"


class NotIsomorphism(AmalgamLabError):
    kind = "NotIsomorphism"


# --- fundgroup / bass_serre -----------------------------------------------

class BaseMismatch(AmalgamLabError):
    kind = "BaseMismatch"


class BudgetExceeded(AmalgamLabError):
    kind = "BudgetExceeded"

    def __init__(self, limit: int, walk: str, message: str = ""):
        super().__init__(message or f"{walk}: element budget {limit} exceeded")
        self.limit = limit


class NotInBall(AmalgamLabError):
    kind = "NotInBall"


class NoEdges(AmalgamLabError):
    kind = "NoEdges"


# --- separation / boundary ------------------------------------------------

class PreconditionUnmet(AmalgamLabError):
    kind = "PreconditionUnmet"

    def __init__(self, condition: str, witness=None):
        super().__init__(f"{condition}" + (f" (witness: {witness})" if witness is not None else ""))
        self.condition = condition
        self.witness = witness


class Inconclusive(AmalgamLabError):
    kind = "Inconclusive"


class DepthTooSmall(AmalgamLabError):
    kind = "DepthTooSmall"
