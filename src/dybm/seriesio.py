"""Series files: CSV with a ``u0,u1,...`` header and one 0/1 row per step.

Rows are in time order; blank lines are skipped. Files must be rectangular,
hold only 0/1 values, and contain at least one data row; violations raise
SeriesFormatError with the offending row, numbered by its line in the file,
and column so the CLI can point at them.

Text laid out as ``format_series`` writes it (``\n`` line ends, no blank
line, unpadded ``0``/``1`` cells) is decoded as bytes in a few vector
passes; any other text goes through the per-cell reader.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["SeriesFormatError", "parse_series", "format_series", "read_series", "write_series"]


class SeriesFormatError(ValueError):
    """Raised when a series file does not follow the CSV schema."""


def _header(n_units: int) -> list[str]:
    return [f"u{i}" for i in range(n_units)]


def parse_series(text: str) -> np.ndarray:
    """Parse CSV text into an int array of shape (steps, units)."""
    head, _, body = text.partition("\n")
    header = head.split(",")
    if body.isascii() and header == _header(len(header)):
        # every row is "c,c,...,c\n", so a row's bytes minus this one are
        # 0 or 1 at a cell and 0 elsewhere
        row = np.frombuffer(b"0," * (len(header) - 1) + b"0\n", dtype=np.uint8)
        data = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
        if data.size and data.size % row.size == 0:
            delta = data.reshape(-1, row.size) - row
            if (delta <= (row == ord("0"))).all():
                return delta[:, ::2].astype(np.int64)
    return _parse_cells(text)


def _parse_cells(text: str) -> np.ndarray:
    """``parse_series`` one cell at a time, naming the first bad one."""
    lines = [(r, line) for r, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1) if line]
    if not lines:
        raise SeriesFormatError("empty file: expected a header row u0,u1,...")
    header = lines[0][1].split(",")
    expected = _header(len(header))
    if header != expected:
        raise SeriesFormatError(
            f"header row must be {','.join(expected[:3])},...; got {lines[0][1]!r}"
        )
    n_units = len(header)
    if not lines[1:]:
        raise SeriesFormatError("series must contain at least one data row")
    rows = []
    for r, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n_units:
            raise SeriesFormatError(
                f"row {r}: expected {n_units} columns, got {len(cells)}"
            )
        row = []
        for c, cell in enumerate(cells):
            value = cell.strip()
            if value not in ("0", "1"):
                raise SeriesFormatError(
                    f"row {r}, column {c} ({header[c]}): value must be 0 or 1, "
                    f"got {cell!r}"
                )
            row.append(int(value))
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


def format_series(series) -> str:
    """Render a (steps, units) array of 0/1 values as CSV text."""
    arr = np.asarray(series)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise SeriesFormatError(
            f"series must be a non-empty 2-d array, got shape {arr.shape}"
        )
    if not np.all((arr == 0) | (arr == 1)):
        raise SeriesFormatError("series values must be 0 or 1")
    n_units = arr.shape[1]
    lines = [",".join(f"u{i}" for i in range(n_units))]
    lines.extend(",".join(str(int(x)) for x in row) for row in arr)
    return "\n".join(lines) + "\n"


def read_series(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_series(fh.read())


def write_series(target, series) -> None:
    """Write CSV to a path or a text file object."""
    text = format_series(series)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
