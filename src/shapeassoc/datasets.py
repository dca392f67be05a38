"""Reading and writing series sets, matrices, and reports.

One reader parses series tables and matrix CSV, and one writer writes both.
Floats are written with repr, which parses back to the identical double, and
ids the reader would alter are refused, so every CSV written reads back bit
for bit; under orientation "auto", numeric ids need no more series than samples.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DatasetError, ShapeError, SpecError
from .estimates import _checked
from .series import SeriesSet, load_set

_DELIMITERS = {"comma": ",", "tab": "\t", "whitespace": None}
_ORIENTATIONS = ("rows", "columns", "auto")
_QUOTED = 40  # the most characters of a bad field that an error message quotes


def _fields(raw: str, sep: str | None) -> list[str]:
    return raw.split() if sep is None else [cell.strip() for cell in raw.split(sep)]


def _first(raw: str, sep: str | None) -> str:  # an id or a row label
    return raw.split(sep, 1)[0].strip()


def _width(raw: str, sep: str | None) -> int:
    return len(raw.split()) if sep is None else raw.count(sep) + 1


def _rows(text: str, sep: str | None, source: str) -> list[tuple[int, str]]:
    """(file line number, raw line) of each non-blank line, all as wide as the first."""
    rows = [(ln, raw) for ln, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not rows:
        raise DatasetError(f"{source}: no data lines")
    width = _width(rows[0][1], sep)
    for ln, raw in rows:
        if _width(raw, sep) != width:
            raise DatasetError(f"{source}: line {ln} has {_width(raw, sep)} fields, expected {width}")
    return rows


def _quote(token: str) -> str:
    more = f"... ({len(token)} characters)" if len(token) > _QUOTED else ""
    return f"{token[:_QUOTED]!r}{more}"


def _floats(rows: list[tuple[int, str]], first: int, sep: str | None, source: str) -> np.ndarray:
    """Fields `first` (1-based) onward of each row as a float64 matrix, parsed
    one line at a time; a field that is not a finite number is an error naming
    its line and field, and a delimiter that would split it."""
    data = np.empty((len(rows), _width(rows[0][1], sep) - first + 1))
    try:
        for i, (_, raw) in enumerate(rows):
            # float() ignores the outer whitespace strip() removes, but for
            # \x1c-\x1f, at which splitlines() ends a line
            data[i] = np.fromiter(map(float, raw.split(sep)[first - 1 :]), np.float64)
    except ValueError:
        pass
    else:
        if np.isfinite(data).all():
            return data
    for ln, raw in rows:  # name the first bad field
        for col, token in enumerate(_fields(raw, sep)[first - 1 :], start=first):
            try:
                bad = "" if math.isfinite(float(token)) else f"non-finite value {_quote(token)}"
            except ValueError:
                bad = f"cannot parse {_quote(token)} as a number"
                # a field never holds the separator it was split on
                split_by = [name for name in ("comma", "tab") if _DELIMITERS[name] in token]
                if split_by:
                    bad += f"; delimiter {split_by[0]!r} would split it"
            if bad:
                raise DatasetError(f"{source}: line {ln}, field {col}: {bad}")


def _is_number(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _check_layout(delimiter: str, orientation: str, has_ids: bool) -> None:
    _checked("has_ids", bool, has_ids)
    if _checked("delimiter", str, delimiter) not in _DELIMITERS:
        raise SpecError(f"unknown delimiter {delimiter!r}; expected one of {sorted(_DELIMITERS)}")
    if _checked("orientation", str, orientation) not in _ORIENTATIONS:
        raise SpecError(f"unknown orientation {orientation!r}; expected one of {_ORIENTATIONS}")


def parse_dataset_text(
    text: str,
    delimiter: str = "whitespace",
    orientation: str = "auto",
    has_ids: bool = False,
    source: str = "<string>",
) -> SeriesSet:
    """Parse a rectangular numeric table into a series set.

    With has_ids, the leading field of each line (row orientation) or the
    leading line (column orientation) holds series ids. Orientation "auto"
    picks rows when line 1, field 2 is a number and line 2, field 1 is not,
    columns in the reverse case, and otherwise (no ids, numeric ids, one
    line) rows when there are fewer lines than fields: series are usually
    longer than the collection is wide.
    """
    _check_layout(delimiter, orientation, has_ids)
    sep = _DELIMITERS[delimiter]
    rows = _rows(text, sep, source)
    width = _width(rows[0][1], sep)
    if orientation == "auto":
        orientation = "rows" if len(rows) < width else "columns"
        if has_ids and len(rows) > 1 and width > 1:
            line1_field2 = _is_number(_fields(rows[0][1], sep)[1])
            line2_field1 = _is_number(_first(rows[1][1], sep))
            if line1_field2 != line2_field1:
                orientation = "rows" if line1_field2 else "columns"
    ids: list[str] | None = None
    # field numbers count from the start of the line, id field included
    first = 1
    if has_ids:
        if orientation == "rows":
            ids = [_first(raw, sep) for _, raw in rows]
            first = 2
        else:
            ids = _fields(rows[0][1], sep)
            rows = rows[1:]
        if not rows or width < first:
            raise DatasetError(f"{source}: no numeric data after the id field")
    data = _floats(rows, first, sep, source)
    return load_set(data.T if orientation == "columns" else data, ids)


def parse_dataset(
    path,
    delimiter: str = "whitespace",
    orientation: str = "auto",
    has_ids: bool = False,
) -> SeriesSet:
    p = Path(path)
    return parse_dataset_text(
        p.read_text(), delimiter, orientation, has_ids, source=str(p)
    )


def _csv(labelled_rows) -> str:
    """A comma line per (id, cell strings) pair, refusing an id the reader would
    not give back: one with a comma, a line break or whitespace at either end."""
    lines = []
    for label, cells in labelled_rows:
        if "," in label or label != label.strip() or len(label.splitlines()) != 1:
            raise DatasetError(f"id {label!r} cannot be written: comma, line break or outer whitespace")
        lines.append(",".join([label, *cells]) + "\n")
    return "".join(lines)


def format_series_csv(data: SeriesSet) -> str:
    """Comma layout, one series per row, id first. Full float precision."""
    return _csv((s.id, map(repr, s.values.tolist())) for s in data)


def format_matrix_csv(ids, values) -> str:
    """Square matrix with an id header row and id-labelled rows. A cell below the
    diagonal reuses the string of its mirror above it when the two are equal bit
    for bit (a -0.0 mirrored by 0.0 is not); every other cell is written with repr."""
    ids = list(ids)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (len(ids), len(ids)):
        raise ShapeError(f"matrix of shape {v.shape} does not fit {len(ids)} ids")
    bits = v.view(np.int64)
    above = [[] for _ in ids]  # column c's strings above the diagonal, until row c is written

    def cells(i: int, row: list[float]) -> list[str]:
        same = (bits[i, :i] == bits[:i, i]).tolist()
        below = [s if eq else repr(x) for s, eq, x in zip(above[i], same, row)]
        above[i] = None
        up = list(map(repr, row[i:]))
        for column, s in zip(above[i + 1 :], up[1:]):
            column.append(s)
        return below + up

    rows = (cells(i, row.tolist()) for i, row in enumerate(v))
    return ",".join(["id", *ids]) + "\n" + _csv(zip(ids, rows))


def parse_matrix_csv_text(text: str, source: str = "<string>") -> tuple[tuple[str, ...], np.ndarray]:
    (_, header), *body = _rows(text, ",", source)
    ids = tuple(_fields(header, ",")[1:])
    if not ids:
        raise DatasetError(f"{source}: header row has no ids")
    if len(body) != len(ids):
        raise DatasetError(f"{source}: {len(ids)} ids in header but {len(body)} data rows")
    for (ln, raw), expected in zip(body, ids):
        if (label := _first(raw, ",")) != expected:
            raise DatasetError(f"{source}: line {ln} is labelled {label!r}, expected {expected!r}")
    return ids, _floats(body, 2, ",", source)


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    p = Path(path)
    return parse_matrix_csv_text(p.read_text(), source=str(p))


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
