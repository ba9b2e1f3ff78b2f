import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dybm.fixtures import random_n3_path
from dybm.seriesio import SeriesFormatError, format_series, parse_series, read_series, write_series


class TestParse:
    def test_simple_file(self):
        text = "u0,u1\n1,0\n0,1\n"
        out = parse_series(text)
        np.testing.assert_array_equal(out, [[1, 0], [0, 1]])

    def test_crlf_accepted(self):
        out = parse_series("u0\r\n1\r\n0\r\n")
        np.testing.assert_array_equal(out, [[1], [0]])

    def test_bad_header(self):
        with pytest.raises(SeriesFormatError, match="header"):
            parse_series("a,b\n0,1\n")

    def test_no_data_rows(self):
        with pytest.raises(SeriesFormatError, match="at least one"):
            parse_series("u0,u1\n")

    def test_non_binary_value_locates_cell(self):
        with pytest.raises(SeriesFormatError, match="row 3, column 1"):
            parse_series("u0,u1\n0,1\n0,2\n")

    def test_blank_lines_skipped_but_counted(self):
        np.testing.assert_array_equal(parse_series("\nu0,u1\n0,1\n\n1,0\n\n"), [[0, 1], [1, 0]])
        with pytest.raises(SeriesFormatError, match="row 4, column 1"):
            parse_series("u0,u1\n0,1\n\n0,2\n")
        with pytest.raises(SeriesFormatError, match="row 5, column 1"):
            parse_series("\n\r\nu0,u1\n0,1\n0,2\n")

    def test_ragged_row(self):
        with pytest.raises(SeriesFormatError, match="row 2"):
            parse_series("u0,u1\n0\n")

    def test_empty_file(self):
        with pytest.raises(SeriesFormatError, match="empty"):
            parse_series("")


def _per_cell(text: str) -> np.ndarray:
    """The reference reader: one cell at a time, naming the first bad one."""
    lines = [(r, line) for r, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1) if line]
    if not lines:
        raise SeriesFormatError("empty file: expected a header row u0,u1,...")
    header = lines[0][1].split(",")
    expected = [f"u{i}" for i in range(len(header))]
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


def _outcome(parse, text):
    try:
        return parse(text).tolist()
    except SeriesFormatError as exc:
        return str(exc)


PADDING = " \t\x0b\x1c\xa0\u3000"  # some of what str.strip removes


class TestVectorDecode:
    """The one vector pass reads every text as the per-cell reader does."""

    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_valid_variants_match_the_per_cell_reader(
        self, units, steps, seed, crlf, leading_blank, final_newline
    ):
        rng = np.random.default_rng(seed)
        series = (rng.random((steps, units)) < 0.5).astype(np.int64)
        lines = [",".join(f"u{i}" for i in range(units))]
        for row in series:
            widths = rng.integers(0, 3, 2 * units) * rng.integers(0, 2)
            pads = ["".join(rng.choice(list(PADDING), k)) for k in widths]
            lines.append(",".join(pads[2 * c] + str(x) + pads[2 * c + 1] for c, x in enumerate(row)))
            if rng.random() < 0.2:
                lines.append("")
        if leading_blank:
            lines.insert(0, "")
        text = ("\r\n" if crlf else "\n").join(lines) + ("\n" if final_newline else "")
        out = parse_series(text)
        np.testing.assert_array_equal(out, series)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        np.testing.assert_array_equal(_per_cell(text), out)

    def test_each_one_byte_edit_reads_as_the_per_cell_reader_reads_it(self):
        """Every one-character substitution and insertion over the whole
        ``random_n3`` fixture: the same array, or the same message."""
        text = random_n3_path().read_text(encoding="utf-8")
        for k in range(len(text) + 1):
            for c in "01,\n ;2\r-\t\x1c\xa0\u3000\xe9":
                for edited in (text[:k] + c + text[k + 1 :], text[:k] + c + text[k:]):
                    assert _outcome(parse_series, edited) == _outcome(_per_cell, edited), (k, c)


class TestFormat:
    def test_emits_expected_layout(self):
        text = format_series(np.array([[1, 0], [0, 1]]))
        assert text == "u0,u1\n1,0\n0,1\n"

    def test_rejects_non_binary(self):
        with pytest.raises(SeriesFormatError):
            format_series(np.array([[2, 0]]))

    def test_rejects_empty(self):
        with pytest.raises(SeriesFormatError):
            format_series(np.zeros((0, 2), dtype=int))

    @given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_roundtrip(self, units, steps, seed):
        rng = np.random.default_rng(seed)
        series = (rng.random((steps, units)) < 0.5).astype(np.int64)
        np.testing.assert_array_equal(parse_series(format_series(series)), series)


class TestFiles:
    def test_path_roundtrip(self, tmp_path):
        series = np.array([[1, 0, 1], [0, 0, 0]])
        path = tmp_path / "s.csv"
        write_series(path, series)
        np.testing.assert_array_equal(read_series(path), series)

    def test_write_to_file_object(self, tmp_path):
        import io

        buf = io.StringIO()
        write_series(buf, np.array([[1], [0]]))
        assert buf.getvalue() == "u0\n1\n0\n"
