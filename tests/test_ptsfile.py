import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesum import (
    ParseError,
    Point,
    PointSet,
    load_point_set,
    parse_point_set,
    save_point_set,
    serialize_point_set,
)
from planesum.errors import token_column

coords = st.integers(min_value=-10**6, max_value=10**6)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=1, max_size=20).map(PointSet)

# Point-set text with the cases a line parser must tell apart: plain lines,
# odd whitespace, signs, multi-digit and non-ASCII digits, comments, blank
# lines, duplicates (small coordinates), and malformed, missing or surplus
# tokens.
_space = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u2003", " \t "])
_pad = st.one_of(st.just(""), _space)
_int_token = st.one_of(
    st.integers(min_value=-3, max_value=3).map(str),  # repeats points
    st.integers(min_value=-999, max_value=999).map(str),
    st.sampled_from(["+1", "-0", "007", "+0", "-10", "+23", "\u0663", "-\u0661\u0662"]),
)
_bad_token = st.sampled_from(["x", "1.5", "--1", "+", "-", "1e3", "0x1", "\u00bd", "#"])
_plain = st.tuples(_pad, _int_token, _space, _int_token, _pad).map("".join)
_any_token = st.one_of(_int_token, _bad_token)
_single = st.tuples(_pad, _any_token, _pad).map("".join)
_pair = st.tuples(_pad, _any_token, _space, _any_token, _pad).map("".join)
_tokens = st.tuples(_pad, st.lists(_any_token, min_size=1, max_size=3),
                    _space, _pad).map(lambda t: t[0] + t[2].join(t[1]) + t[3])
_comment = st.tuples(_pad, st.text(alphabet="# ab1", max_size=6)).map(lambda t: t[0] + "#" + t[1])
# mostly plain lines, so that most texts parse and some repeat a point
_line = st.integers(min_value=0, max_value=19).flatmap(
    lambda k: _plain if k < 13 else (_comment, _pad, _pad, _single, _pair, _pair, _tokens)[k - 13])
point_texts = st.tuples(st.lists(_line, max_size=12), st.sampled_from(["", "\n", "\r\n"])) \
    .map(lambda t: t[1].join(t[0]) + t[1])

# Canonical text, as ``serialize_point_set`` writes it, with zero or one
# perturbation that a one-pass reader of that layout must notice: two lines
# swapped, a line repeated, a token respelled (``-0`` and ``0`` collide),
# the final newline dropped, or CRLF line ends. Small coordinates make the
# respelled tokens collide with other points.
_canon_coords = st.one_of(st.integers(min_value=-2, max_value=2), coords)
_PERTURBATIONS = ("none", "swap", "repeat", "respell", "no final newline", "crlf")


@st.composite
def canonical_texts(draw):
    s = PointSet(draw(st.lists(st.tuples(_canon_coords, _canon_coords),
                               min_size=1, max_size=30)))
    lines = serialize_point_set(s).splitlines(keepends=True)
    index = st.integers(min_value=0, max_value=len(lines) - 1)
    kind = draw(st.sampled_from(_PERTURBATIONS))
    if kind == "swap":
        i, j = draw(index), draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "repeat":
        lines.insert(draw(index), lines[draw(index)])
    elif kind == "respell":
        i = draw(index)
        xy = lines[i].split()
        xy[draw(st.integers(0, 1))] = draw(st.sampled_from(["+1", "007", "-0"]))
        lines[i] = " ".join(xy) + "\n"
    text = "".join(lines)
    if kind == "no final newline":
        text = text[:-1]
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    return text


_INT = re.compile(r"[+-]?\d+$")


def _parse_per_token(text, source="<string>"):
    """The parser before its fast paths (one regex per line, one pass over a
    canonical text): every line is split into tokens and each token is
    checked on its own. The reference both fast paths are held to."""
    points = []
    seen = set()
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
        p = Point(int(tokens[0]), int(tokens[1]))
        if p in seen:
            warnings.warn(f"{source}: duplicate point ({p.x}, {p.y}) on line {lineno} dropped")
            continue
        seen.add(p)
        points.append(p)
    if not points:
        raise ParseError(f"no points in {source!r}", max(1, text.count(chr(10)) + 1), 1)
    return PointSet(points)


def _outcome(parse, text):
    """What a parser gives on the text: the set or the ParseError's position
    and message, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, source="in.pts")
        except ParseError as exc:
            result = (exc.line, exc.column, str(exc))
    return result, [str(w.message) for w in caught]


class TestParse:
    def test_basic(self):
        s = parse_point_set("0 0\n1 0\n0 1\n")
        assert s == PointSet([(0, 0), (1, 0), (0, 1)])

    def test_comments_and_blanks(self):
        text = "# a triangle\n\n0 0\n   # indented comment\n1 0\n\n0 1"
        assert parse_point_set(text) == PointSet([(0, 0), (1, 0), (0, 1)])

    def test_signs_and_whitespace(self):
        s = parse_point_set("  -3   +4 \n\t0\t-0\n")
        assert s == PointSet([(-3, 4), (0, 0)])

    def test_duplicate_warns_and_drops(self):
        with pytest.warns(UserWarning, match="duplicate point"):
            s = parse_point_set("1 2\n1 2\n0 0\n")
        assert s == PointSet([(0, 0), (1, 2)])

    def test_one_token_is_error(self):
        with pytest.raises(ParseError) as exc:
            parse_point_set("0 0\n17\n")
        assert exc.value.line == 2

    def test_three_tokens_is_error(self):
        with pytest.raises(ParseError) as exc:
            parse_point_set("1 2 3\n")
        assert exc.value.line == 1
        assert exc.value.column == 5  # the offending third token

    def test_repeated_extra_token_column(self):
        # the third token repeats the first; its own column is reported
        with pytest.raises(ParseError) as exc:
            parse_point_set("1 2 1\n")
        assert (exc.value.line, exc.value.column) == (1, 5)

    def test_non_integer_is_error(self):
        with pytest.raises(ParseError) as exc:
            parse_point_set("0 0\n1 x\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_bad_token_inside_another_token_column(self):
        # "-" also occurs at the start of "-1"; the bad token is at column 4
        with pytest.raises(ParseError) as exc:
            parse_point_set("-1 -\n")
        assert (exc.value.line, exc.value.column) == (1, 4)

    def test_float_is_error(self):
        with pytest.raises(ParseError):
            parse_point_set("1.5 2\n")

    def test_empty_input_is_error(self):
        with pytest.raises(ParseError):
            parse_point_set("# nothing here\n\n")

    @given(point_texts)
    @settings(max_examples=300)
    def test_matches_per_token_reference(self, text):
        assert _outcome(parse_point_set, text) == _outcome(_parse_per_token, text)

    @given(canonical_texts())
    @settings(max_examples=300)
    def test_canonical_layout_matches_per_token_reference(self, text):
        assert _outcome(parse_point_set, text) == _outcome(_parse_per_token, text)

    def test_error_message_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_point_set("0 0\nbad line here\n", source="input.pts")
        msg = str(exc.value)
        assert "input.pts" in msg and "line 2" in msg


class TestRoundTrip:
    def test_serialize_is_canonical(self):
        s = PointSet([(1, 0), (0, 0), (0, 5)])
        assert serialize_point_set(s) == "0 0\n0 5\n1 0\n"

    @given(point_sets)
    @settings(max_examples=100)
    def test_parse_inverts_serialize(self, s):
        assert parse_point_set(serialize_point_set(s)) == s

    @given(point_sets)
    @settings(max_examples=50)
    def test_serialize_is_stable(self, s):
        text = serialize_point_set(s)
        assert serialize_point_set(parse_point_set(text)) == text


class TestFiles:
    def test_save_and_load(self, tmp_path):
        s = PointSet([(2, -1), (0, 0), (-5, 3)])
        path = tmp_path / "pts.pts"
        save_point_set(s, str(path))
        assert load_point_set(str(path)) == s

    def test_load_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.pts"
        path.write_bytes(b"\xef\xbb\xbf0 0\n1 0\n0 1\n")
        assert load_point_set(str(path)) == PointSet([(0, 0), (1, 0), (0, 1)])

    def test_load_reports_path_in_error(self, tmp_path):
        path = tmp_path / "bad.pts"
        path.write_text("1 2\noops\n")
        with pytest.raises(ParseError) as exc:
            load_point_set(str(path))
        assert "bad.pts" in str(exc.value)
