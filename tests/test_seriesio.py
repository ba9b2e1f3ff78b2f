import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dybm import seriesio
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

    def test_ragged_row(self):
        with pytest.raises(SeriesFormatError, match="row 2"):
            parse_series("u0,u1\n0\n")

    def test_empty_file(self):
        with pytest.raises(SeriesFormatError, match="empty"):
            parse_series("")


class TestVectorDecode:
    """The byte-level decode and the per-cell reader parse the same series."""

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
            pads = rng.integers(0, 3, size=(units, 2)) * rng.integers(0, 2)
            lines.append(",".join(" " * a + str(x) + " " * b for x, (a, b) in zip(row, pads)))
            if rng.random() < 0.2:
                lines.append("")
        if leading_blank:
            lines.insert(0, "")
        text = ("\r\n" if crlf else "\n").join(lines) + ("\n" if final_newline else "")
        out = parse_series(text)
        np.testing.assert_array_equal(out, series)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        np.testing.assert_array_equal(seriesio._parse_cells(text), out)

    def test_each_one_byte_edit_reads_as_the_per_cell_reader_reads_it(self):
        def outcome(parse, text):
            try:
                return parse(text).tolist()
            except SeriesFormatError as exc:
                return str(exc)

        text = format_series(np.array([[1, 0, 1], [0, 1, 1]]))
        for k in range(len(text)):
            for c in "01,\n ;2\r-":
                edited = text[:k] + c + text[k + 1 :]
                assert outcome(parse_series, edited) == outcome(seriesio._parse_cells, edited)

    @pytest.mark.parametrize("units", [1, 3, 12])
    def test_written_layout_takes_no_per_cell_call(self, monkeypatch, units):
        series = (np.random.default_rng(units).random((40, units)) < 0.5).astype(np.int64)
        text = format_series(series)

        def per_cell(text):
            raise AssertionError("per-cell reader called")

        monkeypatch.setattr(seriesio, "_parse_cells", per_cell)
        out = parse_series(text)
        np.testing.assert_array_equal(out, series)
        assert out.dtype == np.int64 and out.flags.c_contiguous


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
