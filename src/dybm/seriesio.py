"""Series files: CSV with a ``u0,u1,...`` header and one 0/1 row per step.

Rows are in time order; blank lines are skipped. Files must be rectangular,
hold only 0/1 values, and contain at least one data row; violations raise
SeriesFormatError with the offending row, numbered by its line in the file,
and column so the CLI can point at them.

Every text is read in one vector pass over its code points: CRLF line ends
become ``\n``, a cell may be padded with what ``str.strip`` removes, and the
first fault is named from the same pass's masks.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["SeriesFormatError", "parse_series", "format_series", "read_series", "write_series"]


class SeriesFormatError(ValueError):
    """Raised when a series file does not follow the CSV schema."""


# A cell holds one 0/1 value, padded, exactly when the weights of its code
# points sum to 2 ("0") or 3 ("1"): padding (what str.strip removes, up to
# U+3000) and the cell ends "," and "\n" weigh 0, any other code point 4.
_WEIGHT = np.array([0 if chr(c).isspace() else 4 for c in range(0x3002)], dtype=np.uint8)
_WEIGHT[[ord(","), ord("0"), ord("1")]] = 0, 2, 3


def parse_series(text: str) -> np.ndarray:
    """Parse CSV text into an int array of shape (steps, units)."""
    text = text.replace("\r\n", "\n")
    rest = text.lstrip("\n")
    head, _, body = rest.partition("\n")
    if not head:
        raise SeriesFormatError("empty file: expected a header row u0,u1,...")
    header = head.split(",")
    n_units, expected = len(header), [f"u{i}" for i in range(len(header))]
    if header != expected:
        raise SeriesFormatError(f"header row must be {','.join(expected[:3])},...; got {head!r}")
    body += "\n"
    cp = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    newline = cp == 10
    ends = cp == 44
    ends[1:] |= newline[1:] > newline[:-1]  # the "\n" of a blank line ends no cell
    cells = np.flatnonzero(ends)  # the "," or "\n" that ends each cell
    if not cells.size:
        raise SeriesFormatError("series must contain at least one data row")
    # a cell's sum runs over the code points after the previous cell's end (past U+3000, ``take`` clips)
    sums = _WEIGHT.take(cp, mode="clip").cumsum(dtype=np.int64).take(cells)
    sums[1:] -= sums[:-1]
    bad, row_end = sums >> 1 != 1, newline[cells]
    steps = np.count_nonzero(row_end)
    if sums.size == steps * n_units and row_end[n_units - 1 :: n_units].all() and not bad.any():
        return (sums & 1).reshape(steps, n_units)
    # the first row with a wrong column count or a bad cell
    stops = np.flatnonzero(row_end)  # each row's last cell
    starts = np.r_[0, stops[:-1] + 1]
    counts = stops - starts + 1
    k = int(np.argmax((counts != n_units) | np.logical_or.reduceat(bad, starts)))
    end = cells[stops[k]]
    # its line in the file: after the leading blank lines, the header and the body's lines before it
    row = len(text) - len(rest) + 2 + body.count("\n", 0, end)
    if counts[k] != n_units:
        raise SeriesFormatError(f"row {row}: expected {n_units} columns, got {counts[k]}")
    c = int(np.argmax(bad[starts[k] : stops[k] + 1]))
    cell = body[body.rfind("\n", 0, end) + 1 : end].split(",")[c]
    raise SeriesFormatError(f"row {row}, column {c} ({header[c]}): value must be 0 or 1, got {cell!r}")


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
