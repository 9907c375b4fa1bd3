"""Tick ingestion, missing-value fill, and time alignment of stock price series.

Raw per-transaction records arrive as CSV with the header
``stock_id,timestamp,bid,ask,volume,avg_price`` (ISO-8601 millisecond UTC
timestamps, empty field = missing).  The pipeline here is:

    parse_ticks -> fill_missing -> select_consistent_stocks

parse_ticks reads the lines in bounded blocks: a block without quotes is split
into fields with string operations, any other block goes through csv.reader.  It
parses a block a column at a time (canonical timestamps by digit arithmetic; only
non-canonical fields go through the per-row parsers) and gives one
TickColumns per stock: datetime64[ms] ``timestamp`` and float64 ``price``
arrays, sorted by time.  A tick's price is its ``avg_price``, else the bid/ask
midpoint, else whichever single side is present, else NaN (no price); bid, ask
and volume are checked but not stored: in bulk, on the bytes of a column's
fields, and converted only where a price falls back to bid and ask (a column
the bulk check cannot clear is converted whole).  fill_missing samples the
prices onto a uniform time grid, giving a PriceMatrix: strictly positive
prices, one row per grid instant and one column per stock, plus a fill mask.
PriceMatrix.from_csv reads a matrix CSV through the same blocks.

Ingest holds about one copy of its data: one block's strings at a time, each
column's blocks merged into a few arrays as they come, and the columns sorted
(parse_ticks) or joined (from_csv) one at a time.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

TICK_HEADER = ("stock_id", "timestamp", "bid", "ask", "volume", "avg_price")


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 timestamp into UTC datetime64[ms].

    Accepts a trailing 'Z' or an explicit offset; naive timestamps are
    taken as UTC.  Raises ValueError on anything unparseable.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty timestamp")
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is not None:
        try:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError as exc:  # the offset moves it outside years 1-9999
            raise ValueError(f"timestamp {text!r} out of range") from exc
    return np.datetime64(dt, "ms")


def format_timestamp(ts: np.datetime64) -> str:
    """Inverse of parse_timestamp: millisecond ISO-8601 with 'Z' suffix."""
    return f"{np.datetime64(ts, 'ms')}Z"


@dataclass(frozen=True)
class TickColumns:
    """One stock's ticks, sorted by timestamp (stable within ties).

    ``price`` is each tick's price (see ``_tick_block``), NaN where it has none.
    """

    timestamp: np.ndarray
    price: np.ndarray


@dataclass
class TickTable:
    """Per-stock tick columns, in the order of each stock's first valid row."""

    columns: dict[str, TickColumns]
    skipped: int = 0

    @property
    def stock_ids(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def n_records(self) -> int:
        return sum(c.timestamp.size for c in self.columns.values())


def _parse_number(text: str) -> float:
    """One numeric field: blank means missing (NaN); inf marks a bad or non-finite one."""
    s = text.strip()
    try:
        value = float(s)
    except ValueError:
        return math.inf if s else math.nan
    return value if math.isfinite(value) else math.inf


# Lines per block.  parse_ticks on a 182k-row file (7.3 MB of columns) raised peak RSS by
# 13.6 MB at 2048 and 12.0 MB at 256 (no faster); at 64k, by 64.5 MB and took 1.7x the time
_BLOCK_ROWS = 2048

# The canonical timestamp: an ASCII digit where _TS_FORM has "0", else its character
_TS_FORM = "0000-00-00T00:00:00.000Z"
_TS_LEN = len(_TS_FORM)
_TS_SEP_AT = [i for i, c in enumerate(_TS_FORM) if c != "0"]
_TS_SEP = np.array([ord(_TS_FORM[i]) for i in _TS_SEP_AT], dtype=np.uint32)
_TS_DIGIT_AT = [i for i, c in enumerate(_TS_FORM) if c == "0"]
_TS_RUNS = np.diff([-1, *_TS_SEP_AT]) - 1  # digits of year, month, day, hour, minute, second, ms
# each number's digits, as (start, stop) in _TS_DIGIT_AT
_TS_NUMBER_DIGITS = [(int(end - n), int(end)) for n, end in zip(_TS_RUNS, np.cumsum(_TS_RUNS))]
# days per month, by month number; 0 for the month numbers 0 and 13 (or more)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _floats(fields: Sequence[str]) -> np.ndarray:
    """float() of each field, NaN for a blank one, inf for "nan", "inf" or an overflow.

    Blank fields (missing values) read as "nan" here.  When float() rejects a
    field (a malformed one, or one padded with the ASCII separators 0x1C-0x1F,
    which only the str.strip() of _parse_number drops), the column takes one
    per-field float() pass, and only the fields it rejects go to _parse_number.
    """
    text = list(map({"": "nan"}.get, fields, fields)) if "" in fields else fields
    try:
        values, rejected = np.fromiter(map(float, text), np.float64, len(fields)), []
    except ValueError:
        parsed = list(map(_float_or_none, text))
        rejected = [i for i, v in enumerate(parsed) if v is None]
        values = np.array([math.nan if v is None else v for v in parsed])
    nonfinite = np.flatnonzero(~np.isfinite(values)).tolist()
    values[[i for i in nonfinite if fields[i]]] = math.inf  # a blank stays NaN
    values[rejected] = [_parse_number(fields[i]) for i in rejected]
    return values


def _at_least(fields: Sequence[str], lowest: str) -> bool:
    """Whether _floats gives each field NaN or a finite value of at least ``lowest`` ("0" or "1").

    True when every field is blank or 1-300 ASCII digits with at most one ".",
    led by a digit from ``lowest`` to "9"; it reads the bytes of all fields at once.
    """
    chars = np.frombuffer(",".join(fields).encode("ascii", "replace"), np.uint8)  # "?": not ASCII
    commas = np.flatnonzero(chars == ord(","))
    dots = np.flatnonzero(chars == ord("."))
    starts = np.r_[0, commas + 1]
    lengths = np.diff(np.r_[starts, chars.size + 1]) - 1
    return bool(
        commas.size == len(fields) - 1  # no comma inside a field
        and np.count_nonzero(chars - ord("0") < 10) + commas.size + dots.size == chars.size
        and lengths.max() <= 300
        # a "." sorts below every digit; a blank field starts at the next comma or the end
        and (chars[starts[lengths > 0]] >= ord(lowest)).all()
        and (np.diff(np.searchsorted(commas, dots)) > 0).all()  # at most one "." a field
    )


def _floats_where(fields: Sequence[str], lowest: str, rows: list[int]) -> np.ndarray:
    """_floats(fields); if each field is _at_least ``lowest``, its values at ``rows``, else NaN."""
    if not _at_least(fields, lowest):
        return _floats(fields)
    values = np.full(len(fields), math.nan)
    values[rows] = _floats([fields[i] for i in rows])
    return values


def _digit_numbers(digits: np.ndarray) -> list[np.ndarray]:
    """Each number of the canonical timestamp from its rows of ``digits``.

    Horner's rule in int64, one row at a time, makes no (digits x fields) temporary.
    """
    numbers = []
    for start, stop in _TS_NUMBER_DIGITS:
        number = digits[start].astype(np.int64)
        for digit in digits[start + 1 : stop]:
            number *= 10
            number += digit
        numbers.append(number)
    return numbers


def _parse_timestamps(fields: Sequence[str]) -> np.ndarray:
    """parse_timestamp over ``fields`` as datetime64[ms], with NaT where it raises.

    A field in the canonical form (``_TS_LEN`` characters, ASCII digits, a valid
    Gregorian date and time from year 1 on) is decoded by arithmetic on the code
    points of all fields at once; parse_timestamp takes the rest.
    """
    n = len(fields)
    chars = np.array(fields, dtype=f"U{_TS_LEN}").view(np.uint32).reshape(n, _TS_LEN)
    canonical = (
        (np.fromiter(map(len, fields), np.intp, n) == _TS_LEN)  # the array cuts longer ones
        & (chars[:, _TS_SEP_AT] == _TS_SEP).all(axis=1)
    )
    digits = chars.T[_TS_DIGIT_AT]  # one contiguous row per digit position
    del chars
    digits -= ord("0")
    np.minimum(digits, 10, out=digits)  # 10: not a digit (< "0" wraps)
    canonical &= (digits < 10).all(axis=0)
    year, month, day, hour, minute, second, milli = _digit_numbers(digits)
    del digits
    leap_day = (month == 2) & (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    canonical &= (
        (year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[np.minimum(month, 13)] + leap_day)
        & (hour < 24) & (minute < 60) & (second < 60)
    )
    # days since 1970-01-01 (days-from-civil, with each year starting on 1 March)
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719468)
    out = ((((days * 24 + hour) * 60 + minute) * 60 + second) * 1000 + milli).view("datetime64[ms]")
    rest = np.flatnonzero(~canonical).tolist()
    out[rest] = np.datetime64("NaT")
    for i in rest:
        try:
            out[i] = parse_timestamp(fields[i])
        except ValueError:
            pass
    return out


@contextmanager
def _open_text(path: str | Path) -> Iterator[IO[str]]:
    """The UTF-8 file at ``path``, opened for CSV; a file that cannot be read is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _split_plain(lines: list[str]) -> list[str] | None:
    """The rows of ``lines`` split by string operations, or None where csv.reader must read them.

    csv.reader reads a block that holds a quote, a NUL (which Python 3.10's reader
    rejects) or a line longer than csv.field_size_limit().  It also reads one with a
    line break before the end of a line: a stream that ends lines at "\\n" alone can
    leave a "\\r" inside one, which the reader may reject, and str.splitlines also
    breaks at "\\x1c" and the like, which the reader keeps in a field.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = text.splitlines()
    return rows if len(rows) == len(lines) else None


def _csv_blocks(stream: IO[str], name: str | Path, convert: Callable[..., tuple]) -> Iterator:
    """The header row of a CSV (None if there is none), then ``convert``'s result per block.

    A block is up to ``_BLOCK_ROWS`` lines, or as many rows where csv.reader reads it
    (a quoted field can span lines).  ``convert`` takes the field count of each row
    (0 for an empty line), the field of each one-field row, and the columns of the
    rows with as many fields as the header.  The block's strings are dropped before
    its result is yielded, so only one block's are ever held.  Malformed CSV or text
    that is not UTF-8 is a DataError.
    """
    read = 0  # lines read before the current reader started
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        yield header
        if header is None:
            return
        width = len(header)
        read = reader.line_num
        while lines := list(islice(stream, _BLOCK_ROWS)):
            plain = _split_plain(lines)
            if plain is not None:
                read += len(lines)
                del lines
                n = len(plain)
                widths = (np.fromiter(map(str.count, plain, repeat(",")), np.intp, n)
                          + np.fromiter(map(bool, plain), np.intp, n))
                singles = list(compress(plain, (widths == 1).tolist()))
                text = ",".join(compress(plain, (widths == width).tolist()))
                del plain
                fields = text.split(",") if text else []
                del text
                columns = [fields[k::width] for k in range(width)]
                del fields
            else:
                # as many rows as lines reads them all; a quoted field may run on past them
                reader = csv.reader(chain(lines, stream))
                rows = list(islice(reader, len(lines)))
                read += reader.line_num
                del lines
                widths = np.fromiter(map(len, rows), np.intp, len(rows))
                singles = list(map(itemgetter(0), compress(rows, (widths == 1).tolist())))
                columns = list(zip(*compress(rows, (widths == width).tolist()))) or [()] * width
                del rows
            result = convert(widths, singles, columns)
            del singles, columns
            yield result
    except csv.Error as exc:
        raise DataError(f"{name}: malformed CSV at line {read + reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{name} is not valid UTF-8: {exc}") from exc


def parse_ticks(source: str | Path | bytes | IO) -> TickTable:
    """Read a tick CSV stream into per-stock, time-sorted columns.

    Lines are read in bounded blocks, so the file is never held whole, and parsed
    a column at a time; only non-canonical fields go through the per-row parsers.
    A malformed header is fatal; rows that cannot be parsed (wrong field count,
    empty stock id, bad timestamp, non-finite number, non-positive price,
    negative volume) are skipped and counted in ``TickTable.skipped``.  Bid, ask
    and volume are only checked: the columns keep timestamp and price.  A bytes
    (UTF-8) or text stream stays open.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source) as fh:
            return _parse_tick_rows(fh, source)
    if isinstance(source, bytes):
        return parse_ticks(io.BytesIO(source))
    if isinstance(source.read(0), str):
        return _parse_tick_rows(source, "tick stream")
    text = io.TextIOWrapper(source, encoding="utf-8", newline="")
    try:
        return _parse_tick_rows(text, "tick stream")
    finally:
        text.detach()  # a collected wrapper would close the caller's stream


def _append(parts: list[np.ndarray], part: np.ndarray) -> None:
    """Append ``part`` to ``parts``, merging the newest parts while they are of like length.

    The parts' lengths at least halve along the list, so a long file's blocks end in
    a few large arrays (which the allocator gives back to the system once freed,
    unlike many small ones), and each row is copied a logarithmic number of times.
    """
    parts.append(part)
    while len(parts) > 1 and len(parts[-2]) <= 2 * len(parts[-1]):
        last = parts.pop()
        parts[-1] = np.concatenate((parts[-1], last))


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The concatenation of ``parts``, which it empties so that they can be freed."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _tick_block(codes: dict[str, int], widths: np.ndarray, singles: list[str], columns: list):
    """A block's skipped-row count, then its kept rows' code, timestamp and price.

    A row's price is its avg_price, else the bid/ask midpoint, else whichever single
    side is present, else NaN.  Volume is only checked.  ``codes`` maps each stock
    id to its code, in order of first kept row; it takes the block's new ids.
    """
    ids, stamps, bid, ask, volume, avg_price = columns
    ids = list(map(str.strip, ids))
    timestamp = _parse_timestamps(stamps)
    avg_price = _floats(avg_price)
    fallback = np.flatnonzero(np.isnan(avg_price)).tolist()  # the rows that read bid and ask
    bid, ask = (_floats_where(f, "1", fallback) for f in (bid, ask))
    volume = _floats_where(volume, "0", [])
    numbers = [bid, ask, volume, avg_price]
    # NaN (missing) fails every comparison, so it passes these checks, as does each
    # value _floats_where leaves out: a price of at least 1 or a volume of at least 0
    keep = np.fromiter(map(bool, ids), bool, len(ids)) & ~(
        np.isnat(timestamp) | np.isinf(numbers).any(axis=0) | (bid <= 0.0)
        | (ask <= 0.0) | (avg_price <= 0.0) | (volume < 0.0)
    )
    kept = list(compress(ids, keep.tolist()))
    for stock in dict.fromkeys(kept):  # this block's ids, in order of first kept row
        codes.setdefault(stock, len(codes))
    # a row with more than one field, or one that is not blank, counts
    non_blank = int(np.count_nonzero(widths > 1)) + sum(map(bool, map(str.strip, singles)))
    code = np.fromiter(map(codes.__getitem__, kept), np.intp, len(kept))
    price = avg_price
    for fallback in (0.5 * (bid + ask), bid, ask):  # the midpoint is NaN unless both sides are
        price = np.where(np.isnan(price), fallback, price)
    return non_blank - len(kept), code, timestamp[keep], price[keep]


def _parse_tick_rows(stream: IO[str], name: str | Path) -> TickTable:
    codes: dict[str, int] = {}
    items = _csv_blocks(stream, name, partial(_tick_block, codes))
    header = next(items)
    if header is None:
        raise DataError("tick stream is empty (missing header)")
    if tuple(h.strip().lower() for h in header) != TICK_HEADER:
        raise DataError(f"malformed tick header {header!r}; expected {','.join(TICK_HEADER)}")

    # the kept rows' code, timestamp and price, one list of parts each
    parts: list[list[np.ndarray]] = [[] for _ in range(3)]
    skipped = 0
    for block_skipped, *columns in items:
        skipped += block_skipped
        for column, values in zip(parts, columns):
            _append(column, values)

    if skipped:
        logger.info("parse_ticks: skipped %d unparseable row(s)", skipped)
    if not codes:
        return TickTable(columns={}, skipped=skipped)
    # one column at a time, so that only one is held both unsorted and sorted
    code, timestamp = _joined(parts[0]), _joined(parts[1])
    order = np.lexsort((timestamp, code))  # by stock, then stably by time
    bounds = np.cumsum(np.bincount(code))[:-1]
    del code
    timestamps = np.split(timestamp[order], bounds)
    del timestamp
    prices = np.split(_joined(parts[2])[order], bounds)
    return TickTable(dict(zip(codes, map(TickColumns, timestamps, prices))), skipped)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sampling instants around the clock."""

    instants: np.ndarray

    def __post_init__(self) -> None:
        inst = np.asarray(self.instants, dtype="datetime64[ms]")
        object.__setattr__(self, "instants", inst)
        if inst.size == 0:
            raise DataError("time grid must contain at least one instant")
        if inst.size > 1 and not (np.diff(inst) > np.timedelta64(0, "ms")).all():
            raise DataError("time grid instants must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.instants.size)

    def truncated(self, keep_last: int) -> "TimeGrid":
        """Grid over the most recent ``keep_last`` instants."""
        if not 0 < keep_last <= self.count:
            raise DataError(f"cannot keep {keep_last} of {self.count} instants")
        return TimeGrid(self.instants[self.count - keep_last:])

    @classmethod
    def regular(
        cls,
        start: str | datetime | np.datetime64,
        step: timedelta | np.timedelta64,
        count: int,
    ) -> "TimeGrid":
        """Build a uniform grid of ``count`` instants."""
        if count < 1:
            raise DataError("grid count must be positive")
        if isinstance(start, str):
            start = parse_timestamp(start)
        start64 = np.datetime64(start, "ms")
        step64 = np.timedelta64(step) if isinstance(step, timedelta) else step
        step64 = step64.astype("timedelta64[ms]")
        if step64 <= np.timedelta64(0, "ms"):
            raise DataError("grid step must be a positive duration")
        return cls(start64 + step64 * np.arange(count))


@dataclass
class PriceMatrix:
    """Aligned prices: rows = grid instants, columns = stocks with unique ids.

    ``fill_mask`` is True where the value was produced by forward/backward
    fill rather than direct observation.
    """

    grid: TimeGrid
    stock_ids: tuple[str, ...]
    values: np.ndarray
    fill_mask: np.ndarray

    def __post_init__(self) -> None:
        self.stock_ids = tuple(self.stock_ids)
        if repeated := [s for s, n in Counter(self.stock_ids).items() if n > 1]:
            raise DataError(f"repeated stock id(s): {', '.join(repeated)}")
        self.values = np.asarray(self.values, dtype=np.float64)
        self.fill_mask = np.asarray(self.fill_mask, dtype=bool)
        rows, cols = self.values.shape
        if rows != self.grid.count:
            raise DataError(f"{rows} price rows do not match {self.grid.count} grid instants")
        if cols != len(self.stock_ids):
            raise DataError(f"{cols} price columns do not match {len(self.stock_ids)} stock ids")
        if self.fill_mask.shape != self.values.shape:
            raise DataError("fill mask shape differs from price matrix shape")
        if not np.isfinite(self.values).all() or (self.values <= 0).any():
            raise DataError("price matrix must be finite and strictly positive")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_stocks(self) -> int:
        return self.values.shape[1]

    def observed_fraction(self) -> np.ndarray:
        """Per-stock fraction of cells that were directly observed."""
        return 1.0 - self.fill_mask.mean(axis=0)

    def restrict(self, stock_ids: Iterable[str]) -> "PriceMatrix":
        """Sub-matrix over the given stocks, in the given order."""
        wanted = tuple(stock_ids)
        missing = [s for s in wanted if s not in self.stock_ids]
        if missing:
            raise DataError(f"unknown stock id(s): {', '.join(missing)}")
        cols = [self.stock_ids.index(s) for s in wanted]
        return PriceMatrix(
            grid=self.grid,
            stock_ids=wanted,
            values=self.values[:, cols],
            fill_mask=self.fill_mask[:, cols],
        )

    def to_csv(self, path: str | Path) -> None:
        """Write `timestamp,<stock>,...` rows with full float precision."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("timestamp",) + self.stock_ids)
            for ts, row in zip(self.grid.instants, self.values):
                writer.writerow([format_timestamp(ts)] + [repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path: str | Path) -> "PriceMatrix":
        """Load a matrix CSV.  Loaded cells count as observed (empty mask).

        The rows are read a block at a time and converted a column at a time.  The
        first faulty row (wrong field count, bad timestamp, unparseable number) in
        file order is a DataError.
        """
        times: list[np.ndarray] = []
        values: list[np.ndarray] = []
        with _open_text(path) as fh:
            blocks = _csv_blocks(fh, path, partial(_matrix_block, path))
            header = next(blocks)
            if header is None:
                raise DataError(f"{path}: empty price matrix file")
            if len(header) < 2 or header[0].strip().lower() != "timestamp":
                raise DataError(f"{path}: malformed price matrix header {header!r}")
            for inst, block in blocks:
                if len(inst):
                    _append(times, inst)
                    _append(values, block)
        if not times:
            raise DataError(f"{path}: price matrix has no data rows")
        grid = TimeGrid(_joined(times))
        ids = tuple(h.strip() for h in header[1:])
        return cls(grid, ids, _joined(values), np.zeros((grid.count, len(ids)), bool))


def _matrix_block(
    path: str | Path, widths: np.ndarray, singles: list[str], columns: list
) -> tuple[np.ndarray, np.ndarray]:
    """A matrix CSV block's instants and prices; its first faulty row is a DataError."""
    stamps, *fields = columns
    inst = _parse_timestamps(stamps)
    block = np.empty((len(stamps), len(fields)))
    try:
        for j, column in enumerate(fields):
            block[:, j] = np.fromiter(map(float, column), np.float64, len(column))
        faulty = np.isnat(inst).any() or (widths[widths > 0] != len(columns)).any()
    except ValueError:
        faulty = True
    if faulty:
        _raise_first_faulty_row(path, widths, columns, np.isnat(inst))
    return inst, block


def _raise_first_faulty_row(
    path: str | Path, widths: np.ndarray, columns: list, bad_time: np.ndarray
) -> None:
    """Raise the DataError for the first faulty row of a faulty matrix CSV block.

    ``columns`` hold the rows with as many fields as the header; ``bad_time`` is
    True where their timestamp did not parse.
    """
    rows = zip(*columns, bad_time.tolist())
    for width in widths[widths > 0].tolist():
        if width != len(columns):
            raise DataError(f"{path}: row with {width} fields, expected {len(columns)}")
        *row, bad = next(rows)
        try:
            if bad:
                parse_timestamp(row[0])  # this raises, giving the reason
            for field in row[1:]:
                float(field)
        except ValueError as exc:
            raise DataError(f"{path}: unparseable row {row!r}: {exc}") from exc


def _ffill_bfill(column: np.ndarray) -> np.ndarray:
    """Fill NaNs from the previous value, then leading gaps from the next one."""
    n = column.size
    present = ~np.isnan(column)
    idx = np.where(present, np.arange(n), -1)
    np.maximum.accumulate(idx, out=idx)
    out = column[np.maximum(idx, 0)]
    if idx[0] == -1:  # leading gap: backward fill from first observation
        first = np.argmax(present)
        lead = idx == -1
        out[lead] = column[first]
    return out


def fill_missing(table: TickTable, grid: TimeGrid) -> PriceMatrix:
    """Sample each stock onto the grid and fill gaps.

    Cell i takes the last tick price at or before instant i; a cell with no
    fresh tick since the previous instant is a forward fill of its
    predecessor (leading gaps are backward-filled from the first
    observation) and is flagged in the fill mask.  A stock with no priced
    tick at or before the final instant is dropped, with one log line.
    """
    instants = grid.instants
    n = grid.count
    # each stock's column is written in place; a dropped stock's is compacted away
    values = np.empty((n, len(table.columns)))
    mask = np.empty((n, len(table.columns)), bool)
    kept: list[bool] = []
    for j, (stock_id, ticks) in enumerate(table.columns.items()):
        p = ticks.price
        # bucket index: tick belongs to the first grid instant at or after it
        cell = np.searchsorted(instants, ticks.timestamp, side="left")
        keep = ~np.isnan(p) & (cell < n)
        kept.append(bool(keep.any()))
        if not kept[-1]:
            logger.warning(
                "fill_missing: dropped %s: no priced tick at or before %s",
                stock_id, format_timestamp(instants[-1]),
            )
            continue
        cell, p = cell[keep], p[keep]
        # the ticks are in time order, so each bucket's last tick ends a run of equal cells
        last = np.r_[cell[1:] != cell[:-1], True]
        observed = np.full(n, np.nan)
        observed[cell[last]] = p[last]
        # assigned, not written with out=: a ufunc's out= into a strided column can go wrong
        mask[:, j] = np.isnan(observed)
        values[:, j] = _ffill_bfill(observed)
    if not any(kept):
        raise DataError("no stock has any observation inside the grid window")
    if not all(kept):
        values, mask = values[:, kept], mask[:, kept]
    return PriceMatrix(grid, tuple(compress(table.columns, kept)), values, mask)


def select_consistent_stocks(
    matrix: PriceMatrix, min_observed_fraction: float = 0.9, step_size: int = 1
) -> PriceMatrix:
    """Truncate rows for gradient windows and keep consistently observed stocks.

    The row count is cut down to the largest multiple of ``step_size`` by
    removing the oldest rows, keeping the most recent window intact.  A
    stock whose observed (non-filled) fraction of those rows is below the
    threshold is excluded, with one log line.  Applied to its own result,
    it returns an equal matrix.  When every stock is kept, the result's
    prices and mask are views of ``matrix``'s, not copies.
    """
    if not 0.0 < min_observed_fraction <= 1.0:
        raise DataError("min_observed_fraction must lie in (0, 1]")
    if step_size < 1:
        raise DataError("step_size must be a positive integer")
    rows_kept = (matrix.n_rows // step_size) * step_size
    if rows_kept == 0:
        raise DataError(f"only {matrix.n_rows} rows available for step size {step_size}")
    start = matrix.n_rows - rows_kept
    recent = PriceMatrix(
        matrix.grid.truncated(rows_kept), matrix.stock_ids,
        matrix.values[start:], matrix.fill_mask[start:],
    )
    frac = recent.observed_fraction()
    keep = (frac >= min_observed_fraction).tolist()
    if not any(keep):
        raise DataError(
            f"no stock meets the presence threshold {min_observed_fraction:g} "
            f"(best observed fraction: {frac.max():.3f})"
        )
    for stock_id, fraction, ok in zip(matrix.stock_ids, frac.tolist(), keep):
        if not ok:
            logger.info(
                "select_consistent_stocks: excluded %s: observed fraction %.3f below threshold %g",
                stock_id, fraction, min_observed_fraction,
            )
    return recent if all(keep) else recent.restrict(compress(matrix.stock_ids, keep))
