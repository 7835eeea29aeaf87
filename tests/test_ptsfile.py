import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesum import (
    ParseError,
    PointSet,
    load_point_set,
    parse_point_set,
    save_point_set,
    serialize_point_set,
)

coords = st.integers(min_value=-10**6, max_value=10**6)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=1, max_size=20).map(PointSet)


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

    def test_load_reports_path_in_error(self, tmp_path):
        path = tmp_path / "bad.pts"
        path.write_text("1 2\noops\n")
        with pytest.raises(ParseError) as exc:
            load_point_set(str(path))
        assert "bad.pts" in str(exc.value)
