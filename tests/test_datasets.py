import numpy as np
import pytest

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


class TestSeriesCsv:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(71)
        data = load_set([random_values(rng, 9) for _ in range(4)])
        text = format_series_csv(data)
        again = parse_dataset_text(text, delimiter="comma", orientation="rows", has_ids=True)
        assert again.ids == data.ids
        for sid in data.ids:
            assert np.array_equal(again[sid].values, data[sid].values)


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
