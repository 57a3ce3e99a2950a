"""Reading and writing CSV files, and market calendars.

Realized-variance input files carry one row per trading day with a
configurable value column. Rows with missing or nonpositive values are
dropped and counted; surviving rows are treated as consecutive business
days (the volatility clock stops while markets are closed, so calendar
gaps do not enter). :func:`compute_m` derives the intraday return count m
from market session hours; the command line takes m as a flag.

No other module opens files. Inputs are read as UTF-8 by :func:`open_input`,
whose errors name the file; outputs go through :func:`atomic_write`: LF line
endings, floats at 17 significant digits (re-read bit-exactly), and a temporary
file renamed over the target, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import csv
import math
import os
import re
import secrets
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fracsim import GridPath
from .proxy import RvSeries

CSV_FLOAT_FORMAT = "%.17g"  # round-trips float64 exactly

DEFAULT_DELTA = 1.0 / 250.0  # one business day in years

# Column names of a canonical realized-variance file, and the reader's defaults.
DATE_COLUMN = "date"
RV_COLUMN = "rv"

_TIME_PATTERN = re.compile(r"^(\d{1,2}):(\d{2})$")


class IngestError(ValueError):
    """Unreadable or malformed input file; the message names it and any bad line."""


def _parse_clock(value) -> int:
    """Clock time as minutes since midnight; accepts 'HH:MM' or minutes."""
    if isinstance(value, int):
        minutes = value
    else:
        match = _TIME_PATTERN.match(str(value).strip())
        if not match:
            raise ValueError(f"cannot parse clock time {value!r}; use 'HH:MM'")
        minutes = int(match.group(1)) * 60 + int(match.group(2))
    if not 0 <= minutes <= 24 * 60:
        raise ValueError(f"clock time {value!r} outside a single day")
    return minutes


@dataclass(frozen=True)
class MarketCalendar:
    """Daily trading sessions as (open, close) clock intervals plus the
    sampling frequency of the published realized variance."""

    sessions: tuple
    rv_frequency_minutes: int = 5

    def __post_init__(self):
        if self.rv_frequency_minutes < 1:
            raise ValueError("rv_frequency_minutes must be >= 1")
        parsed = []
        for open_t, close_t in self.sessions:
            start = _parse_clock(open_t)
            end = _parse_clock(close_t)
            if end <= start:
                raise ValueError(f"session ({open_t}, {close_t}) has nonpositive length")
            parsed.append((start, end))
        parsed.sort()
        for (_, prev_end), (next_start, _) in zip(parsed, parsed[1:]):
            if next_start < prev_end:
                raise ValueError("sessions overlap")
        object.__setattr__(self, "sessions", tuple(parsed))

    def total_minutes(self) -> int:
        return sum(end - start for start, end in self.sessions)


@dataclass(frozen=True)
class IngestReport:
    """Bookkeeping from one file read: the date of each kept row, and the
    number of dropped rows per reason. A read keeps at least one row."""

    kept_dates: tuple[str, ...]
    reasons: Counter

    @property
    def rows_kept(self) -> int:
        return len(self.kept_dates)

    @property
    def rows_dropped(self) -> int:
        return sum(self.reasons.values())

    @property
    def rows_read(self) -> int:
        """Rows that were not blank."""
        return self.rows_kept + self.rows_dropped

    @property
    def date_span(self) -> tuple[str, str]:
        return self.kept_dates[0], self.kept_dates[-1]


def compute_m(calendar: MarketCalendar) -> int:
    """Intraday return count: total session minutes over the sampling
    frequency, floored. Splitting a session into back-to-back pieces does
    not change the result."""
    total = calendar.total_minutes()
    if total <= 0:
        raise ValueError("calendar has no trading minutes")
    m = total // calendar.rv_frequency_minutes
    if m < 1:
        raise ValueError(
            f"sessions of {total} minutes are shorter than one "
            f"{calendar.rv_frequency_minutes}-minute sampling interval"
        )
    return int(m)


@contextmanager
def open_input(path):
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped; a
    failure to open, read or decode it raises an ``IngestError`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise IngestError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc.reason}") from None


@contextmanager
def _csv_rows(path):
    """The header (None if empty) and (line number, row) of each later nonblank row."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            yield next(reader, None), ((reader.line_num, row) for row in reader
                                       if any(c.strip() for c in row))
        except csv.Error as exc:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


def read_rv_csv(
    path,
    m: int,
    delta: float = DEFAULT_DELTA,
    column: str = RV_COLUMN,
    date_column: str = DATE_COLUMN,
    strict: bool = False,
) -> tuple[RvSeries, IngestReport]:
    """Parse a daily realized-variance file into a clean series.

    Rows with empty or non-finite values are dropped with reason
    ``missing``/``non_finite``; nonpositive values with reason
    ``nonpositive``. Non-numeric cells are a hard parse error naming the
    line. With ``strict`` any dropped row is an error, for runs that must
    not silently close gaps.
    """
    values: list[float] = []
    dates: list[str] = []
    reasons: Counter = Counter()

    with _csv_rows(path) as (header, data):
        if header is None:
            raise IngestError(f"{path}: empty file")
        names = [cell.strip() for cell in header]
        try:
            value_index = names.index(column)
        except ValueError:
            raise IngestError(
                f"{path}: no column named {column!r} (found {names})"
            ) from None
        date_index = names.index(date_column) if date_column in names else None

        for rows_read, (lineno, row) in enumerate(data, start=1):
            if max(value_index, date_index or 0) >= len(row):
                raise IngestError(f"{path}: line {lineno}: too few columns")
            cell = row[value_index].strip()
            date = row[date_index].strip() if date_index is not None else str(rows_read)
            if cell == "":
                reasons["missing"] += 1
                continue
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}: line {lineno}: non-numeric value {cell!r} in "
                    f"column {column!r}"
                ) from None
            if math.isnan(value) or math.isinf(value):
                reasons["non_finite"] += 1
                continue
            if value <= 0.0:
                reasons["nonpositive"] += 1
                continue
            values.append(value)
            dates.append(date)

    dropped = sum(reasons.values())
    if not values:
        raise IngestError(
            f"{path}: all {dropped} rows dropped ({dict(reasons)}); nothing to analyze"
        )
    if strict and dropped:
        raise IngestError(
            f"{path}: {dropped} row(s) dropped ({dict(reasons)}) but strict "
            "mode forbids closing gaps"
        )

    return RvSeries(values, delta=delta, m=m), IngestReport(tuple(dates), reasons)


def format_cell(value) -> str:
    """Text of one output value: floats at 17 significant digits, booleans
    as ``true``/``false``, anything else through ``str``, quoted as CSV
    readers expect when it holds a comma, quote or line break."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return CSV_FLOAT_FORMAT % value
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_lines(header, rows):
    """LF-terminated CSV lines: the header, then one line per row."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(format_cell(value) for value in row) + "\n"


def atomic_write(path, lines) -> None:
    """Write an iterable of strings to ``path`` through a temporary file in
    the same directory, renamed over the target only once every line is
    written. If anything raises, the target is untouched and the temporary
    file is removed. The file gets the umask's default permissions, as a
    plain ``open`` would give it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    fh = open(tmp, "x", newline="", encoding="utf-8")  # exclusive: never reuses another file
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Atomically write a CSV file; see :func:`csv_lines` and
    :func:`atomic_write`."""
    atomic_write(path, csv_lines(header, rows))


def read_float_table(path, columns) -> np.ndarray:
    """Rows of a CSV file whose header starts with ``columns``, as a float
    array of shape (rows, len(columns)); blank rows are skipped and further
    columns are ignored."""
    columns = list(columns)
    width = len(columns)
    rows = []
    with _csv_rows(path) as (header, data):
        if header is None or [cell.strip() for cell in header[:width]] != columns:
            raise IngestError(f"{path}: expected header {','.join(columns)!r}")
        for lineno, row in data:
            try:
                rows.append([float(row[i]) for i in range(width)])
            except (IndexError, ValueError):
                raise IngestError(f"{path}: bad row at line {lineno}") from None
    return np.array(rows, dtype=float).reshape(len(rows), width)


def read_grid_csv(path, kind: str = "log_price") -> GridPath:
    """Read a ``t,value`` file and infer the (uniform) step size."""
    table = read_float_table(path, ("t", "value"))
    if len(table) < 2:
        raise IngestError(f"{path}: need at least two grid points")
    ts = table[:, 0]
    steps = np.diff(ts)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise IngestError(f"{path}: grid is not uniformly spaced")
    return GridPath(table[:, 1].copy(), dt=float(dt), t0=float(ts[0]), kind=kind)
