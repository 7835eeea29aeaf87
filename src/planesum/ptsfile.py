"""Reading and writing the plain-text point-set format.

One point per line: two signed decimal integers separated by whitespace.
Lines whose first non-blank character is ``#`` are comments; blank lines are
skipped. Duplicate points are dropped with a warning. Serialization emits
the canonical (lexicographic) order, so parse(serialize(s)) == s.

A text takes one of two paths. One in the layout that serialization writes
(one ``x y`` line per point, a single space, ``\n`` after every line,
points strictly increasing) is converted in one pass of C-level calls.
Every other text, and with it every ``ParseError`` and duplicate warning,
goes through the line-by-line loop, which reads each line token by token.
Files are read as UTF-8, with a leading byte-order mark skipped.
"""

from __future__ import annotations

import re
import warnings
from itertools import islice, repeat
from operator import lt

from .errors import ParseError, token_column
from .geometry import Point, PointSet

_INT = re.compile(r"[+-]?\d+$")
# the layout ``serialize_point_set`` writes, before its order is checked
_CANONICAL = re.compile(r"(?:-?[0-9]+ -?[0-9]+\n)+")


def parse_point_set(text: str, source: str = "<string>") -> PointSet:
    """Parse point-set text; raise ParseError with line/column on bad input.

    A text in the canonical layout whose points strictly increase is taken
    as it stands, with no set and no sort. Any other text, duplicates and
    errors included, is read line by line; only that loop warns or raises.
    """
    if _CANONICAL.fullmatch(text):
        ints = iter(map(int, text.split()))
        pts = tuple(map(tuple.__new__, repeat(Point), zip(ints, ints)))
        if all(map(lt, pts, islice(pts, 1, None))):
            return PointSet._sorted(pts)
    seen = set()  # the distinct points, as int tuples
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = raw.split()
        if len(tokens) != 2:
            col = token_column(raw, 2) if len(tokens) > 2 else len(raw.rstrip()) + 1
            what = "extra token" if len(tokens) > 2 else "expected two integers"
            raise ParseError(f"{what} in {source!r}: {stripped!r}", lineno, col)
        for k, tok in enumerate(tokens):
            if not _INT.match(tok):
                raise ParseError(
                    f"not an integer in {source!r}: {tok!r}", lineno, token_column(raw, k)
                )
        p = (int(tokens[0]), int(tokens[1]))
        if p in seen:
            warnings.warn(
                f"{source}: duplicate point ({p[0]}, {p[1]}) on line {lineno} dropped"
            )
            continue
        seen.add(p)
    if not seen:
        raise ParseError(f"no points in {source!r}", max(1, text.count(chr(10)) + 1), 1)
    # sorted as plain tuples, which compare faster than Points; then one Point each
    return PointSet._sorted(map(Point._make, sorted(seen)))


def load_point_set(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_point_set(fh.read(), source=path)


def serialize_point_set(s: PointSet) -> str:
    """Canonical text form: one 'x y' line per point, lexicographic order."""
    return "".join(f"{p.x} {p.y}\n" for p in s)


def save_point_set(s: PointSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_point_set(s))
