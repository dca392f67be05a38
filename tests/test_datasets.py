import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeassoc import (
    DatasetError,
    Pearson,
    ShapeError,
    SpecError,
    association_matrix,
    load_set,
    parse_dataset,
    parse_dataset_text,
)
from shapeassoc.bench import SyntheticCluster, SyntheticDataset, generate_synthetic
from shapeassoc.datasets import (
    format_matrix_csv,
    format_series_csv,
    parse_matrix_csv_text,
    read_matrix_csv,
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
        path.write_text(format_matrix_csv(m.ids, m.values))
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


def _per_cell_matrix_csv(ids, values) -> str:
    """The matrix writer's former formula, kept as the oracle: repr of every cell."""
    rows = np.asarray(values, dtype=np.float64)
    lines = [",".join([label, *map(repr, row.tolist())]) + "\n" for label, row in zip(ids, rows)]
    return ",".join(["id", *ids]) + "\n" + "".join(lines)


def _symmetric(rng, k):
    a = rng.standard_normal((k, k))
    return a + a.T


def _asymmetric(rng, k):
    return rng.standard_normal((k, k))


def _signed_zeros(rng, k):
    a = _symmetric(rng, k)
    a[0, 1], a[1, 0] = -0.0, 0.0  # equal as floats, not bit for bit
    a[2, 3], a[3, 2] = 0.0, -0.0
    a[1, 2] = a[2, 1] = -0.0
    return a


@pytest.mark.parametrize("build", [_symmetric, _asymmetric, _signed_zeros])
def test_the_matrix_writer_matches_the_per_cell_formula(build):
    values = build(np.random.default_rng(11), 6)
    ids = [f"s{i}" for i in range(len(values))]
    assert format_matrix_csv(ids, values) == _per_cell_matrix_csv(ids, values)
    assert format_matrix_csv(ids, values.T) == _per_cell_matrix_csv(ids, values.T)


class TestErrorOrder:
    """Each reader checks every line's width before it parses a cell, and names
    the first bad cell in file order by its stripped text."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("1 2 3\n4 x 6\n7 8\n",), "line 3 has 2 fields, expected 3"),
            (("1 2 3\n4 inf 6\n7 abc 9\n",), "line 2, field 2: non-finite value 'inf'"),
            (("1,2,3\n4, abc ,6\n", "comma"), "line 2, field 2: cannot parse 'abc' as a number"),
            # "1,5" is one field, not a number: line 2's id field is read as data
            (("a 1,5\nb 3\nc 4\n", "whitespace", "auto", True), "line 2, field 1: cannot parse 'b' as a number"),
        ],
        ids=["width-before-cell", "non-finite-before-unparsable", "padded-cell", "whole-token-is-number"],
    )
    def test_series_table(self, args, message):
        with pytest.raises(DatasetError) as err:
            parse_dataset_text(*args)
        assert str(err.value) == f"<string>: {message}"

    def test_matrix(self):
        with pytest.raises(DatasetError) as err:
            parse_matrix_csv_text("id,a,b\na,1,x\nb,1\n")
        assert str(err.value) == "<string>: line 3 has 2 fields, expected 3"


# --- the reader before it parsed one line at a time, kept as the oracle --------


def _reference_fields(text: str, delimiter: str) -> list[list[str]]:
    sep = {"comma": ",", "tab": "\t", "whitespace": None}[delimiter]
    return [
        raw.split() if sep is None else [cell.strip() for cell in raw.split(sep)]
        for raw in text.splitlines()
        if raw.strip()
    ]


def _reference_floats(rows: list[list[str]], first: int) -> np.ndarray:
    """Every line's stripped fields as one array: a ValueError on a bad cell."""
    data = np.array([list(map(float, fields[first - 1 :])) for fields in rows])
    if not np.isfinite(data).all():
        raise ValueError("non-finite cell")
    return data


def _reference_is_number(token: str) -> bool:
    try:
        _reference_floats([[token]], 1)
    except ValueError:
        return False
    return True


def _reference_parse(text: str, delimiter: str, orientation: str, has_ids: bool):
    rows = _reference_fields(text, delimiter)
    if orientation == "auto":
        orientation = "rows" if len(rows) < len(rows[0]) else "columns"
        if has_ids and len(rows) > 1 and len(rows[0]) > 1:
            line1_field2, line2_field1 = _reference_is_number(rows[0][1]), _reference_is_number(rows[1][0])
            if line1_field2 != line2_field1:
                orientation = "rows" if line1_field2 else "columns"
    ids, first = None, 1
    if has_ids:
        if orientation == "rows":
            ids, first = [fields[0] for fields in rows], 2
        else:
            ids, rows = rows[0], rows[1:]
    data = _reference_floats(rows, first)
    return load_set(data.T if orientation == "columns" else data, ids)


def _bits(read, *args):
    """The ids and the float64 bits, as int64, of each series a reader gives."""
    data = read(*args)
    return data.ids, [s.values.view(np.int64).tolist() for s in data]


_SEPARATORS = {"comma": ",", "tab": "\t", "whitespace": " "}
# padding a cell may carry: a tab would split a tab-separated cell
_PADDING = {"comma": " \t", "tab": " ", "whitespace": " \t"}
_FORMATS = [repr, "{:.17g}".format, "{:.17e}".format]


def _padded_table(draws, cells: list[list[str]], delimiter: str) -> str:
    pad = st.text(st.sampled_from(_PADDING[delimiter]), max_size=2)
    return "".join(
        _SEPARATORS[delimiter].join(draws.draw(pad) + cell + draws.draw(pad) for cell in line) + "\n"
        for line in cells
    )


class TestLineAtATimeReader:
    @given(
        st.sampled_from(sorted(_SEPARATORS)),
        st.sampled_from(["rows", "columns"]),
        st.booleans(),
        st.booleans(),
        st.integers(1, 5),
        st.integers(2, 6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_the_reference(self, delimiter, layout, auto, has_ids, k, n, draws):
        """Same ids and float64 bits (-0.0, subnormals, 17-digit forms) as the
        reader that split every line first, padded cells included."""
        values = draws.draw(_float_rows(k, n))
        fmt = draws.draw(st.sampled_from(_FORMATS))
        lines = [[f"s{i}"] * has_ids + [fmt(v) for v in row] for i, row in enumerate(values)]
        if layout == "columns":
            lines = [list(column) for column in zip(*lines)]
        text = _padded_table(draws, lines, delimiter)
        args = text, delimiter, "auto" if auto else layout, has_ids
        assert _bits(parse_dataset_text, *args) == _bits(_reference_parse, *args)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matrix_bits_equal_the_reference(self, k, draws):
        values = draws.draw(_float_rows(k, k))
        fmt = draws.draw(st.sampled_from(_FORMATS))
        ids = [f"s{i}" for i in range(k)]
        text = _padded_table(draws, [["id", *ids]] + [[i, *map(fmt, row)] for i, row in zip(ids, values)], "comma")
        rows = _reference_fields(text, "comma")
        want = _reference_floats(rows[1:], 2)
        got_ids, got = parse_matrix_csv_text(text)
        assert got_ids == tuple(rows[0][1:]) == tuple(ids)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def wide_short_texts():
    """The benchmark's wide-short inputs at seed 0: a 200 x 256 series table
    with ids, and its 200 x 200 Pearson matrix CSV."""
    member = SyntheticCluster(5, (False, False, False, True, True))
    data, _ = generate_synthetic(SyntheticDataset(seed=0, length=256, clusters=(member,) * 40))
    m = association_matrix(Pearson(), data)
    return format_series_csv(data), format_matrix_csv(m.ids, m.values)


def _heap_peak(read, text) -> int:
    """Bytes of Python heap that read(text) holds at its peak, after a warm call."""
    read(text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        read(text)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "which, read",
    [
        (0, lambda text: parse_dataset_text(text, "comma", "auto", True)),
        (1, parse_matrix_csv_text),
    ],
    ids=["series-table", "matrix"],
)
def test_a_reader_holds_at_most_one_line_of_cells(wide_short_texts, which, read):
    # the text's lines and the parsed floats stay; a string for every cell at once
    # would take 5-6 times the text
    text = wide_short_texts[which]
    assert _heap_peak(read, text) <= 2.5 * len(text)


@pytest.mark.parametrize(
    "act, message",
    [
        (
            lambda: parse_dataset_text("a\nb\n", "whitespace", "rows", has_ids=True),
            "<string>: no numeric data after the id field",
        ),
        (
            lambda: parse_dataset_text("a b c\n", "whitespace", "columns", has_ids=True),
            "<string>: no numeric data after the id field",
        ),
        (lambda: parse_matrix_csv_text("id\n"), "<string>: header row has no ids"),
        (lambda: parse_matrix_csv_text("id,a,b\na,1,0\n"), "<string>: 2 ids in header but 1 data rows"),
        (lambda: parse_matrix_csv_text("id,a\na,1\nb,2\n"), "<string>: 1 ids in header but 2 data rows"),
    ],
)
def test_refusals(act, message):
    with pytest.raises(DatasetError) as exc:
        act()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "ids, values, message",
    [
        (["a"], np.eye(2), "matrix of shape (2, 2) does not fit 1 ids"),
        (["a", "b", "c"], np.eye(2), "matrix of shape (2, 2) does not fit 3 ids"),
        (["a", "b"], np.ones((2, 3)), "matrix of shape (2, 3) does not fit 2 ids"),
        (["a", "b"], np.ones(4), "matrix of shape (4,) does not fit 2 ids"),
    ],
    ids=["one-id", "three-ids", "not-square", "flat"],
)
def test_the_matrix_writer_refuses_a_matrix_that_does_not_fit_its_ids(ids, values, message):
    with pytest.raises(ShapeError) as exc:
        format_matrix_csv(ids, values)
    assert str(exc.value) == message
