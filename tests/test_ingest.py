"""CSV ingestion and market-calendar tests."""

import csv
import os
import stat

import numpy as np
import pytest

import roughvol as rv
from roughvol.ingest import IngestError, read_float_table


class TestComputeM:
    def test_single_session_five_minutes(self):
        cal = rv.MarketCalendar(sessions=(("9:30", "16:00"),), rv_frequency_minutes=5)
        assert rv.compute_m(cal) == 78

    def test_split_session_market(self):
        cal = rv.MarketCalendar(
            sessions=(("9:00", "11:30"), ("12:30", "15:00")), rv_frequency_minutes=5
        )
        assert rv.compute_m(cal) == 60

    def test_long_session_market(self):
        cal = rv.MarketCalendar(sessions=(("8:00", "16:30"),), rv_frequency_minutes=5)
        assert rv.compute_m(cal) == 102

    def test_session_split_invariance(self):
        whole = rv.MarketCalendar(sessions=(("9:30", "16:00"),), rv_frequency_minutes=5)
        split = rv.MarketCalendar(
            sessions=(("9:30", "12:00"), ("12:00", "16:00")), rv_frequency_minutes=5
        )
        assert rv.compute_m(whole) == rv.compute_m(split)

    def test_flooring(self):
        cal = rv.MarketCalendar(sessions=(("9:00", "9:59"),), rv_frequency_minutes=10)
        assert rv.compute_m(cal) == 5

    def test_invalid_sessions(self):
        with pytest.raises(ValueError):
            rv.MarketCalendar(sessions=(("16:00", "9:30"),))
        with pytest.raises(ValueError):
            rv.MarketCalendar(sessions=(("9:00", "12:00"), ("11:00", "15:00")))


class TestReadRvCsv:
    def test_clean_file(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n2020-01-02,1e-4\n2020-01-03,2e-4\n2020-01-06,1.5e-4\n")
        series, report = rv.read_rv_csv(target, m=78)
        assert len(series) == 3
        assert report.rows_read == 3
        assert report.rows_dropped == 0
        assert report.date_span == ("2020-01-02", "2020-01-06")

    def test_nonpositive_dropped_with_reason(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n1,1e-4\n2,0\n3,2e-4\n")
        series, report = rv.read_rv_csv(target, m=78)
        assert len(series) == 2
        assert report.reasons["nonpositive"] == 1

    def test_non_numeric_is_parse_error_naming_line(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n1,1e-4\n2,oops\n")
        with pytest.raises(IngestError, match="line 3"):
            rv.read_rv_csv(target, m=78)

    def test_row_shorter_than_date_column_is_parse_error(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("rv,date\n1e-4,2020-01-02\n2e-4\n3e-4,2020-01-06\n")
        with pytest.raises(IngestError, match="line 3: too few columns"):
            rv.read_rv_csv(target, m=78)

    def test_missing_column(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,vol\n1,1e-4\n")
        with pytest.raises(IngestError, match="no column named 'rv'"):
            rv.read_rv_csv(target, m=78)

    def test_custom_column_names(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("day,rv5\n1,1e-4\n2,2e-4\n")
        series, _ = rv.read_rv_csv(target, m=78, column="rv5", date_column="day")
        assert len(series) == 2

    def test_all_rows_dropped(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n1,0\n2,-1\n")
        with pytest.raises(IngestError, match="all 2 rows dropped"):
            rv.read_rv_csv(target, m=78)

    def test_strict_mode_fails_on_gaps(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n1,1e-4\n2,0\n3,2e-4\n")
        with pytest.raises(IngestError, match="strict"):
            rv.read_rv_csv(target, m=78, strict=True)

    def test_missing_cell_dropped(self, tmp_path):
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n1,1e-4\n2,\n3,2e-4\n")
        _, report = rv.read_rv_csv(target, m=78)
        assert report.reasons["missing"] == 1

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        body = "rv,date\n1e-4,2020-01-02\n2e-4,2020-01-03\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text("\ufeff" + body, encoding="utf-8")
        (series, report), (plain_series, plain_report) = (
            rv.read_rv_csv(path, m=78) for path in (marked, plain))
        assert series.values.tolist() == plain_series.values.tolist()
        assert report == plain_report
        marked.write_text("\ufeffh,nu\n0.1,0.5\n", encoding="utf-8")
        np.testing.assert_array_equal(read_float_table(marked, ("h", "nu")), [[0.1, 0.5]])

    def test_report_counts(self, tmp_path):
        # blank rows are not read; missing and nonpositive ones are dropped
        target = tmp_path / "rv.csv"
        target.write_text("date,rv\n2020-01-02,1e-4\n\n2020-01-03,\n2020-01-06,0\n"
                          " , \n2020-01-07,2e-4\n2020-01-08,-1\n")
        _, report = rv.read_rv_csv(target, m=78)
        assert report.kept_dates == ("2020-01-02", "2020-01-07")
        assert report.reasons == {"missing": 1, "nonpositive": 2}
        assert (report.rows_read, report.rows_kept, report.rows_dropped) == (5, 2, 3)
        assert report.date_span == ("2020-01-02", "2020-01-07")

    def test_idempotent_roundtrip(self, tmp_path):
        original = tmp_path / "rv.csv"
        original.write_text(
            "date,rv\n2020-01-02,1.0412416347183462e-4\n2020-01-03,2.73194e-4\n"
        )
        series, report = rv.read_rv_csv(original, m=78)
        canonical = tmp_path / "canonical.csv"
        rv.write_csv(canonical, ["date", "rv"], zip(report.kept_dates, series.values))
        series2, report2 = rv.read_rv_csv(canonical, m=78)
        assert np.array_equal(series.values, series2.values)
        assert report2.kept_dates == report.kept_dates
        canonical2 = tmp_path / "canonical2.csv"
        rv.write_csv(canonical2, ["date", "rv"], zip(report2.kept_dates, series2.values))
        assert canonical.read_bytes() == canonical2.read_bytes()
        assert canonical.read_bytes() == (
            b"date,rv\n2020-01-02,0.00010412416347183461\n2020-01-03,0.00027319399999999999\n"
        )


class TestWriteCsv:
    def test_cells_and_line_endings(self, tmp_path):
        target = tmp_path / "out.csv"
        rows = [(0.1, 3, True, "x"), (np.float64(1 / 3), -2, False, 'say "hi", twice')]
        rv.write_csv(target, ["a", "b", "c", "d"], rows)
        assert target.read_bytes() == (
            b"a,b,c,d\n0.10000000000000001,3,true,x\n"
            b'0.33333333333333331,-2,false,"say ""hi"", twice"\n'
        )
        with open(target, newline="") as fh:
            assert list(csv.reader(fh))[2][3] == 'say "hi", twice'

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous\n")

        def rows():
            yield (1.0, 2.0)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            rv.write_csv(target, ["a", "b"], rows())
        assert target.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_permissions_follow_umask(self, tmp_path):
        target = tmp_path / "out.csv"
        rv.write_csv(target, ["a"], [(1.0,)])
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


class TestReadFloatTable:
    def test_reads_leading_columns(self, tmp_path):
        target = tmp_path / "starts.csv"
        target.write_text("h,nu,note\n0.1,0.5,a\n0.30000000000000004,2\n")
        table = read_float_table(target, ("h", "nu"))
        assert table.shape == (2, 2)
        assert table[1, 0] == 0.30000000000000004

    def test_blank_rows_are_skipped(self, tmp_path):
        # as read_rv_csv skips them: a trailing blank line changes nothing
        starts, grid = tmp_path / "starts.csv", tmp_path / "grid.csv"
        for blank in ("", "\n", "\n \n", ",\n"):
            starts.write_text("h,nu\n0.1,0.5\n\n0.3,2\n" + blank)
            np.testing.assert_array_equal(read_float_table(starts, ("h", "nu")),
                                          [[0.1, 0.5], [0.3, 2.0]])
            grid.write_text("t,value\n0,1.5\n0.5,2.5\n1,3.5\n" + blank)
            path = rv.read_grid_csv(grid)
            assert (path.values.tolist(), path.dt, path.t0) == ([1.5, 2.5, 3.5], 0.5, 0.0)

    def test_empty_body_and_errors(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("h,nu\n")
        assert read_float_table(target, ("h", "nu")).shape == (0, 2)
        target.write_text("nu,h\n1,2\n")
        with pytest.raises(IngestError, match="expected header 'h,nu'"):
            read_float_table(target, ("h", "nu"))
        target.write_text("h,nu\n1,2\n3\n")
        with pytest.raises(IngestError, match="line 3"):
            read_float_table(target, ("h", "nu"))
