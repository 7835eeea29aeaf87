"""Exception types shared across the package."""

import re


class PlanesumError(Exception):
    """Base class for all errors raised by this package."""


class CollinearInput(PlanesumError):
    """A computation needing a genuine polygon got a collinear point set."""


class DirectionNotGeneric(PlanesumError):
    """The direction is parallel to a hull edge, so arcs are ill-defined."""


class PreconditionViolated(PlanesumError):
    """A checker was invoked outside its stated hypothesis."""


class DegeneratePolygon(PlanesumError):
    """Polygon vertices do not span a two-dimensional convex polygon."""


class CapExceeded(PlanesumError):
    """Requested exhaustive enumeration exceeds the hard size cap."""


class ResumeMismatch(PlanesumError):
    """A checkpoint on disk was written by a run with a different config."""


class ParseError(PlanesumError):
    """Malformed point-set text. Carries 1-based line and column numbers."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def token_column(line: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token of a line."""
    return [m.start() for m in re.finditer(r"\S+", line)][k] + 1
