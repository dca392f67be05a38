import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeassoc import (
    DatasetError,
    Pearson,
    SpecError,
    association_matrix,
    load_set,
    parse_dataset,
    parse_dataset_text,
)
from shapeassoc.datasets import (
    format_matrix_csv,
    format_series_csv,
    parse_matrix_csv_text,
    read_matrix_csv,
    write_text,
)

from helpers import random_values


class TestParsing:
    def test_rows_are_series_when_wide(self):
        s = parse_dataset_text("1 2 3 4\n5 6 7 8\n")
        assert s.n == 4
        assert len(s) == 2
        assert s.ids == ("s1", "s2")

    def test_columns_are_series_when_tall(self):
        s = parse_dataset_text("1 5\n2 6\n3 7\n")
        assert len(s) == 2
        assert s.n == 3
        assert np.array_equal(s["s1"].values, [1, 2, 3])

    def test_explicit_orientation_overrides_auto(self):
        s = parse_dataset_text("1 2 3\n4 5 6\n", orientation="columns")
        assert len(s) == 3
        assert s.n == 2
        assert np.array_equal(s["s2"].values, [2, 5])

    def test_comma_and_tab_delimiters(self):
        assert parse_dataset_text("1,2,3\n4,5,6\n", delimiter="comma").n == 3
        assert parse_dataset_text("1\t2\t3\n4\t5\t6\n", delimiter="tab").n == 3

    def test_row_ids(self):
        s = parse_dataset_text("a 1 2 3\nb 4 5 6\n", has_ids=True, orientation="rows")
        assert s.ids == ("a", "b")
        assert np.array_equal(s["a"].values, [1, 2, 3])

    def test_column_ids(self):
        s = parse_dataset_text("a b\n1 4\n2 5\n3 6\n", has_ids=True, orientation="columns")
        assert s.ids == ("a", "b")
        assert np.array_equal(s["b"].values, [4, 5, 6])

    def test_blank_lines_skipped(self):
        s = parse_dataset_text("\n1 2 3\n\n4 5 6\n\n")
        assert len(s) == 2

    def test_ragged_rows_report_line_number(self):
        with pytest.raises(DatasetError, match="line 3"):
            parse_dataset_text("1 2 3\n4 5 6\n7 8\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(DatasetError, match="line 2, field 2"):
            parse_dataset_text("1 2 3 4\n5 abc 7 8\n")

    def test_a_short_bad_token_is_quoted_whole(self):
        with pytest.raises(DatasetError) as err:
            parse_dataset_text("1 2 3 4\n5 abc 7 8\n")
        assert str(err.value) == "<string>: line 2, field 2: cannot parse 'abc' as a number"
        token = "x" * 40
        with pytest.raises(DatasetError) as err:
            parse_dataset_text(f"1 2\n3 {token}\n")
        assert str(err.value).endswith(f"field 2: cannot parse {token!r} as a number")

    @pytest.mark.parametrize("has_ids", [False, True])
    def test_a_comma_file_read_on_whitespace_is_capped_and_names_the_delimiter(self, has_ids):
        rng = np.random.default_rng(3)
        lines = [
            ",".join([f"s{i}"] * has_ids + [repr(v) for v in random_values(rng, 300)]) for i in (1, 2)
        ]
        with pytest.raises(DatasetError) as err:
            parse_dataset_text("\n".join(lines) + "\n", has_ids=has_ids)
        message = str(err.value)
        # each line is one field; with ids, line 1 is the id line
        bad = lines[1] if has_ids else lines[0]
        assert len(message) < 160, message
        assert f"cannot parse {bad[:40]!r}... ({len(bad)} characters) as a number" in message
        assert message.endswith("; delimiter 'comma' would split it")

    def test_a_tab_file_read_on_commas_names_the_tab_delimiter(self):
        with pytest.raises(DatasetError, match=r"cannot parse '1\\t2\\t3' as a number; delimiter 'tab' would split it$"):
            parse_dataset_text("1\t2\t3\n4\t5\t6\n", delimiter="comma")

    def test_non_finite_cell_reports_position(self):
        for token in ("nan", "inf", "-inf"):
            with pytest.raises(DatasetError, match="line 2, field 3: non-finite"):
                parse_dataset_text(f"1 2 3 4\n5 6 {token} 8\n")
        # the id field counts: nan is the third field of its line
        with pytest.raises(DatasetError, match="line 1, field 3"):
            parse_dataset_text("a,1,nan\nb,2,3\n", "comma", "rows", has_ids=True)

    def test_empty_input(self):
        with pytest.raises(DatasetError):
            parse_dataset_text("  \n\n")

    def test_unknown_options(self):
        with pytest.raises(SpecError):
            parse_dataset_text("1 2\n3 4\n", delimiter="pipe")
        with pytest.raises(SpecError):
            parse_dataset_text("1 2\n3 4\n", orientation="diagonal")

    def test_parse_dataset_from_file(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("1 2 3 9\n4 5 6 9\n")
        s = parse_dataset(p)
        assert len(s) == 2 and s.n == 4

    def test_file_errors_name_the_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 x\n")
        with pytest.raises(DatasetError, match="bad.txt"):
            parse_dataset(p)


def _column_csv(data) -> str:
    """The column layout: an id header line, then one line per sample."""
    lines = [",".join(data.ids)]
    for i in range(data.n):
        lines.append(",".join(repr(float(s.values[i])) for s in data))
    return "\n".join(lines) + "\n"


def _assert_same_set(again, data):
    assert again.ids == data.ids
    for sid in data.ids:
        assert again[sid].values.tobytes() == data[sid].values.tobytes()


def _writable(label: str) -> bool:
    """The reader gives an id back unchanged: no comma, no line break, no
    whitespace at either end."""
    return "," not in label and label == label.strip() and len(label.splitlines()) == 1


csv_ids = st.lists(
    st.text(st.sampled_from(", \n\r\tab") | st.characters(), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
    unique=True,
)


def _float_rows(k: int, n: int):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(st.lists(finite, min_size=n, max_size=n), min_size=k, max_size=k)


class TestSeriesCsv:
    @pytest.mark.parametrize(
        "layout, k, n",
        [
            ("rows", 4, 9),
            ("rows", 9, 9),
            ("rows", 20, 9),
            ("rows", 1000, 365),
            ("columns", 4, 9),
            ("columns", 20, 9),
        ],
        ids=["k-lt-n", "k-eq-n", "k-gt-n", "k1000-n365", "columns-k-lt-n", "columns-k-gt-n"],
    )
    def test_round_trip_is_exact(self, layout, k, n):
        rng = np.random.default_rng(71)
        data = load_set([random_values(rng, n) for _ in range(k)])
        text = format_series_csv(data) if layout == "rows" else _column_csv(data)
        again = parse_dataset_text(text, delimiter="comma", orientation="auto", has_ids=True)
        _assert_same_set(again, data)

    @given(csv_ids, st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, ids, n, draws):
        rows = draws.draw(_float_rows(len(ids), n))
        data = load_set(rows, ids)
        if not all(map(_writable, ids)):
            with pytest.raises(DatasetError, match="cannot be written"):
                format_series_csv(data)
            return
        _assert_same_set(parse_dataset_text(format_series_csv(data), "comma", "rows", True), data)

    def test_id_with_a_comma_is_refused(self):
        data = load_set([(1.0, 2.0), (3.0, 5.0)], ids=["a,b", "c"])
        with pytest.raises(DatasetError, match="'a,b'"):
            format_series_csv(data)


class TestMatrixCsv:
    def test_format_and_parse(self):
        rng = np.random.default_rng(72)
        data = load_set([random_values(rng, 8) for _ in range(5)])
        m = association_matrix(Pearson(), data)
        text = format_matrix_csv(m.ids, m.values)
        header = text.splitlines()[0]
        assert header == "id," + ",".join(m.ids)
        ids, values = parse_matrix_csv_text(text)
        assert ids == m.ids
        assert np.array_equal(values, m.values)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        data = load_set([random_values(rng, 8) for _ in range(3)])
        m = association_matrix(Pearson(), data)
        path = tmp_path / "matrix.csv"
        write_text(path, format_matrix_csv(m.ids, m.values))
        ids, values = read_matrix_csv(path)
        assert ids == m.ids
        assert np.array_equal(values, m.values)

    def test_mismatched_row_label_rejected(self):
        text = "id,a,b\na,1.0,0.5\nWRONG,0.5,1.0\n"
        with pytest.raises(DatasetError):
            parse_matrix_csv_text(text)

    @given(csv_ids, st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, ids, draws):
        rows = draws.draw(_float_rows(len(ids), len(ids)))
        values = np.array(rows, dtype=np.float64)
        if not all(map(_writable, ids)):
            with pytest.raises(DatasetError, match="cannot be written"):
                format_matrix_csv(ids, values)
            return
        again_ids, again = parse_matrix_csv_text(format_matrix_csv(ids, values))
        assert again_ids == tuple(ids)
        assert again.tobytes() == values.tobytes()

    def test_blank_lines_keep_file_line_numbers(self):
        text = "id,a,b\n\na,1.0,0.5\n\n\nb,0.5,oops\n"
        with pytest.raises(DatasetError, match="line 6, field 3: cannot parse 'oops'"):
            parse_matrix_csv_text(text)
        with pytest.raises(DatasetError, match="line 5 has 2 fields, expected 3"):
            parse_matrix_csv_text("id,a,b\n\na,1.0,0.5\n\nb,0.5\n")

    def test_a_tab_separated_matrix_names_the_tab(self):
        with pytest.raises(DatasetError, match=r"field 2: cannot parse '1\\t2' as a number; delimiter 'tab'"):
            parse_matrix_csv_text("id,a\na,1\t2\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_position(self, token):
        text = f"id,a,b\na,1.0,{token}\nb,0.5,1.0\n"
        with pytest.raises(DatasetError, match="line 2, field 3: non-finite"):
            parse_matrix_csv_text(text)

    def test_id_with_a_comma_is_refused(self):
        for ids in (["a,b", "c"], ["a", " c"], ["a", "c\n"], ["a", "c\rd"]):
            with pytest.raises(DatasetError, match="cannot be written"):
                format_matrix_csv(ids, np.eye(2))
