"""Reading and writing series sets, matrices, and reports.

Text formats are kept round-trip safe: floats are written with repr, which
parses back to the identical double.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DatasetError, SpecError
from .series import SeriesSet, load_set

_DELIMITERS = {"comma": ",", "tab": "\t", "whitespace": None}
_ORIENTATIONS = ("rows", "columns", "auto")


def _split(line: str, delimiter: str) -> list[str]:
    sep = _DELIMITERS[delimiter]
    if sep is None:
        return line.split()
    return [cell.strip() for cell in line.split(sep)]


def parse_dataset_text(
    text: str,
    delimiter: str = "whitespace",
    orientation: str = "auto",
    has_ids: bool = False,
    source: str = "<string>",
) -> SeriesSet:
    """Parse a rectangular numeric table into a series set.

    Orientation "auto" treats rows as series when there are fewer rows than
    columns (series are usually longer than the collection is wide);
    otherwise columns are series. With has_ids, the leading column (row
    orientation) or leading row (column orientation) holds series ids.
    """
    if delimiter not in _DELIMITERS:
        raise SpecError(f"unknown delimiter {delimiter!r}; expected one of {sorted(_DELIMITERS)}")
    if orientation not in _ORIENTATIONS:
        raise SpecError(f"unknown orientation {orientation!r}; expected one of {_ORIENTATIONS}")
    table: list[list[str]] = []
    line_numbers: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        table.append(_split(raw, delimiter))
        line_numbers.append(ln)
    if not table:
        raise DatasetError(f"{source}: no data lines")
    width = len(table[0])
    for row, ln in zip(table, line_numbers):
        if len(row) != width:
            raise DatasetError(
                f"{source}: line {ln} has {len(row)} fields, expected {width}"
            )
    if orientation == "auto":
        orientation = "rows" if len(table) < width else "columns"

    ids: list[str] | None = None
    if has_ids:
        if orientation == "rows":
            ids = [row[0] for row in table]
            table = [row[1:] for row in table]
        else:
            ids = list(table[0])
            table = table[1:]
            line_numbers = line_numbers[1:]
        if not table or not table[0]:
            raise DatasetError(f"{source}: no numeric data after the id field")

    def parse_cell(token: str, ln: int, col: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise DatasetError(
                f"{source}: line {ln}, field {col}: cannot parse {token!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise DatasetError(f"{source}: line {ln}, field {col}: non-finite value {token!r}")
        return value

    # field numbers count from the start of the line, id field included
    first = 2 if has_ids and orientation == "rows" else 1
    values = [
        [parse_cell(tok, ln, col) for col, tok in enumerate(row, start=first)]
        for row, ln in zip(table, line_numbers)
    ]
    data = np.asarray(values, dtype=np.float64)
    if orientation == "columns":
        data = data.T
    return load_set(data, ids)


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


def format_series_csv(data: SeriesSet) -> str:
    """Comma layout, one series per row, id first. Full float precision."""
    lines = []
    for s in data:
        lines.append(",".join([s.id] + [repr(float(v)) for v in s.values]))
    return "\n".join(lines) + "\n"


def format_matrix_csv(ids, values) -> str:
    """Square matrix with an id header row and id-labelled rows."""
    ids = list(ids)
    values = np.asarray(values, dtype=np.float64)
    lines = [",".join(["id"] + ids)]
    for label, row in zip(ids, values):
        lines.append(",".join([label] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def parse_matrix_csv_text(text: str, source: str = "<string>") -> tuple[tuple[str, ...], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{source}: no data lines")
    header = [cell.strip() for cell in lines[0].split(",")]
    ids = tuple(header[1:])
    if not ids:
        raise DatasetError(f"{source}: header row has no ids")
    if len(lines) - 1 != len(ids):
        raise DatasetError(
            f"{source}: {len(ids)} ids in header but {len(lines) - 1} data rows"
        )
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(ids) + 1:
            raise DatasetError(
                f"{source}: line {ln} has {len(cells)} fields, expected {len(ids) + 1}"
            )
        if cells[0] != ids[ln - 2]:
            raise DatasetError(
                f"{source}: line {ln} is labelled {cells[0]!r}, expected {ids[ln - 2]!r}"
            )
        try:
            rows.append([float(tok) for tok in cells[1:]])
        except ValueError:
            raise DatasetError(f"{source}: line {ln}: non-numeric matrix entry") from None
    return ids, np.asarray(rows, dtype=np.float64)


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    p = Path(path)
    return parse_matrix_csv_text(p.read_text(), source=str(p))


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
