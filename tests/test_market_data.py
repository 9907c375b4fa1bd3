"""Ingestion, fill, and alignment tests, with brute-force reference oracles."""

import csv
import gc
import io
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlag import market_data
from trendlag.errors import DataError
from trendlag.harness import _infer_grid
from trendlag.market_data import (
    PriceMatrix,
    TickColumns,
    TickTable,
    TimeGrid,
    _parse_number,
    fill_missing,
    format_timestamp,
    parse_ticks,
    parse_timestamp,
    select_consistent_stocks,
)

HEADER = "stock_id,timestamp,bid,ask,volume,avg_price\n"
T0 = "2011-04-01T09:30:00.000Z"


def _grid(count, start=T0, step_seconds=60):
    from datetime import timedelta

    return TimeGrid.regular(start, timedelta(seconds=step_seconds), count)


def _iso(grid, i):
    return format_timestamp(grid.instants[i])


def _tick_csv(rows):
    return (HEADER + "\n".join(rows) + "\n").encode()


def _table_from_cells(cells_per_stock, grid):
    """Build a tick stream with one avg-price tick per non-None grid cell."""
    rows = []
    for stock, cells in cells_per_stock.items():
        for i, price in enumerate(cells):
            if price is not None:
                rows.append(f"{stock},{_iso(grid, i)},,,100,{price}")
    return parse_ticks(_tick_csv(rows))


class TestParseTicks:
    def test_garbage_timestamp_row_is_skipped(self):
        table = parse_ticks(_tick_csv([
            "BBB,not-a-timestamp,10.1,10.3,5,10.2",
            f"AAA,{T0},10.0,10.2,5,10.1",
            "AAA,2011-04-01T09:31:00.000Z,10.1,10.3,5,10.2",
            "AAA,not-a-timestamp,10.1,10.3,5,10.2",
            "",                                          # blank line: ignored
            "AAA,2011-04-01T09:32:00.000Z,10.2,10.4,5,10.3",
            "AAA,2011-04-01T09:33:00.000Z,10.2,10.4,5",  # wrong field count
            ",2011-04-01T09:33:00.000Z,10.2,10.4,5,10.3",  # empty stock id
            "BBB,2011-04-01T09:33:00.000Z,10.2,10.4,5,10.3",
        ]))
        assert table.n_records == 4
        assert table.skipped == 4
        assert table.stock_ids == ("AAA", "BBB")  # ordered by first valid row

    def test_empty_file_with_valid_header(self):
        stream = io.BytesIO(HEADER.encode())
        table = parse_ticks(stream)
        assert table.n_records == 0
        assert table.skipped == 0
        gc.collect()
        assert not stream.closed  # the caller's stream is left open

    def test_malformed_header_is_fatal(self):
        with pytest.raises(DataError, match="header"):
            parse_ticks(b"stock,when,price\nAAA,2011-04-01T09:30:00.000Z,10\n")
        with pytest.raises(DataError, match="empty"):
            parse_ticks(b"")
        with pytest.raises(DataError, match="UTF-8"):
            parse_ticks(_tick_csv([f"AAA,{T0},10.0,10.2,5,10.1"]) + b"AAA,\xff\n")
        with pytest.raises(DataError, match="malformed CSV at line 2"):
            parse_ticks(_tick_csv([f'AAA,"{"x" * 200_000}",10.0,10.2,5,10.1']))

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_ticks(tmp_path / "missing.csv")

    def test_non_positive_prices_and_bad_volume_are_skipped(self):
        table = parse_ticks(_tick_csv([
            f"AAA,{T0},0.0,10.2,5,10.1",      # zero bid
            f"AAA,{T0},10.0,10.2,-1,10.1",    # negative volume
            f"AAA,{T0},-3,10.2,5,10.1",       # negative bid
            f"AAA,{T0},nan,10.2,5,10.1",      # NaN bid
            f"AAA,{T0},10.0,inf,5,10.1",      # infinite ask
            f"AAA,{T0},10.0,10.2,5,-inf",     # infinite average price
            f"AAA,{T0},10.0,10.2,5,10.1",     # fine
        ]))
        assert table.n_records == 1
        assert table.skipped == 6

    def test_empty_fields_parse_as_missing(self):
        table = parse_ticks(_tick_csv([f"AAA,{T0},,,,10.1", f"BBB,{T0},9.0,9.2,,"]))
        assert table.skipped == 0
        assert table.columns["AAA"].price.tolist() == [10.1]
        assert table.columns["BBB"].price == pytest.approx([9.1])  # bid/ask midpoint fallback

    def test_interleaved_stocks_match_sort_then_group_reference(self):
        rng = np.random.default_rng(7)
        grid = _grid(50)
        rows, reference = [], {}
        for i in rng.permutation(100):
            stock = f"S{i % 4}"
            cell = int(i) // 4
            price = 10.0 + 0.01 * i
            rows.append(f"{stock},{_iso(grid, cell)},,,1,{price}")
            reference.setdefault(stock, []).append((grid.instants[cell], price))
        table = parse_ticks(_tick_csv(rows))
        for stock, expected in reference.items():
            expected.sort(key=lambda p: p[0])  # naive sort-then-group oracle
            col = table.columns[stock]
            assert list(zip(col.timestamp, col.price)) == expected
        text = _tick_csv(rows).decode()
        # a text stream, and a text file-like object that is no TextIOBase
        with tempfile.NamedTemporaryFile("w+", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.seek(0)
            for from_text in (parse_ticks(io.StringIO(text)), parse_ticks(fh)):
                assert from_text.stock_ids == table.stock_ids
                assert from_text.n_records == table.n_records
                a, b = fill_missing(from_text, grid), fill_missing(table, grid)
                np.testing.assert_array_equal(a.values, b.values)
                np.testing.assert_array_equal(a.fill_mask, b.fill_mask)

    def test_price_is_avg_then_midpoint_then_one_side(self):
        cases = [  # bid, ask, avg_price -> price
            ("9.0", "11.0", "10.5", 10.5),
            ("9.0", "11.0", "", 10.0),
            ("9.0", "", "", 9.0),
            ("", "11.0", "", 11.0),
            ("", "", "", math.nan),  # no price: kept all the same
        ]
        grid = _grid(len(cases))
        table = parse_ticks(_tick_csv(
            f"AAA,{_iso(grid, i)},{bid},{ask},5,{avg}" for i, (bid, ask, avg, _) in enumerate(cases)
        ))
        assert table.skipped == 0
        col = table.columns["AAA"]
        np.testing.assert_array_equal(col.timestamp, grid.instants)
        np.testing.assert_array_equal(col.price, [price for *_, price in cases])
        # the last tick has no price, yet it still bounds the inferred grid
        np.testing.assert_array_equal(_infer_grid(table, 60).instants, grid.instants)

    def test_timestamp_offsets_normalize_to_utc(self):
        a = parse_timestamp("2011-04-01T09:30:00.000Z")
        b = parse_timestamp("2011-04-01T11:30:00.000+02:00")
        c = parse_timestamp("2011-04-01T09:30:00.000")  # naive = UTC
        assert a == b == c


def _oracle(text, newline="\n"):
    """The per-row rules: stocks by first valid row, each sorted stably by time."""
    columns, skipped = {}, 0
    for row in list(csv.reader(io.StringIO(text, newline=newline)))[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        stock_id = row[0].strip()
        if len(row) != 6 or not stock_id:
            skipped += 1
            continue
        try:
            timestamp = parse_timestamp(row[1])
        except ValueError:
            skipped += 1
            continue
        bid, ask, volume, avg_price = numbers = [_parse_number(f) for f in row[2:]]
        if any(math.isinf(v) for v in numbers) or (
            bid <= 0.0 or ask <= 0.0 or avg_price <= 0.0 or volume < 0.0
        ):
            skipped += 1
            continue
        prices = (avg_price, 0.5 * (bid + ask), bid, ask)
        price = next((p for p in prices if not math.isnan(p)), math.nan)
        columns.setdefault(stock_id, []).append((timestamp, price))
    return {s: sorted(r, key=lambda t: t[0]) for s, r in columns.items()}, skipped


def _assert_table(table, expected, skipped):
    assert table.skipped == skipped
    assert table.stock_ids == tuple(expected)
    for stock, rows in expected.items():
        col = table.columns[stock]
        ts, prices = zip(*rows)
        np.testing.assert_array_equal(col.timestamp, np.array(ts, dtype="datetime64[ms]"))
        np.testing.assert_array_equal(col.price, np.array(prices, dtype=np.float64))


class TestBlockParser:
    """Three rows per block, so that rows of one stock fall in different blocks."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(market_data, "_BLOCK_ROWS", 3)

    def test_non_canonical_timestamps_take_the_per_row_rules(self):
        stamps = [
            ("0000-01-01T00:00:00.000Z", False),
            ("10000-01-01T00:00:00.000Z", False),
            ("NaTZ", False),
            ("2011-02-29T09:30:00.000Z", False),
            ("2011-04-01T09:30:00.000z", True),
            ("2011-04-01T11:30:00.000+02:00", True),
            ("2011-04-01T09:30:00.000", True),
            (" 2011-04-01T09:30:00.000Z", True),
            ("2011-04-01T09:30:00Z", True),
            ("2011-04-01 09:30:00.000Z", True),
        ]
        rows, expected = [], []
        for i, (stamp, ok) in enumerate(stamps):
            rows += [f"AAA,{stamp},1,1,1,{i + 1}", f"AAA,{T0},1,1,1,0.5"]
            expected += ([i + 1] if ok else []) + [0.5]
        table = parse_ticks(_tick_csv(rows))
        assert table.skipped == sum(not ok for _, ok in stamps)
        col = table.columns["AAA"]
        assert (col.timestamp == parse_timestamp(T0)).all()
        assert col.price.tolist() == expected  # one instant, so file order stays

    def test_one_rejected_field_takes_one_per_row_parse(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return parse_timestamp(text)

        grid = _grid(2048)
        fields = [_iso(grid, i) for i in range(2048)]
        fields[1000] = "2011-02-29T09:30:00.000Z"
        monkeypatch.setattr(market_data, "parse_timestamp", counted)
        out = market_data._parse_timestamps(fields)
        assert calls == ["2011-02-29T09:30:00.000Z"]
        assert np.isnat(out[1000])
        np.testing.assert_array_equal(np.delete(out, 1000), np.delete(grid.instants, 1000))

    def test_only_a_field_float_rejects_takes_a_per_row_parse(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return _parse_number(text)

        grid = _grid(2048)
        bid = {1000: "", 1500: "\x1c7\x1c"}  # blank is missing; \x1c: str.strip only
        # no ask or avg_price, so that the price is the bid
        rows = [f"AAA,{_iso(grid, i)},{bid.get(i, i + 1)},,5," for i in range(2048)]
        monkeypatch.setattr(market_data, "_BLOCK_ROWS", 2048)
        monkeypatch.setattr(market_data, "_parse_number", counted)
        col = parse_ticks(_tick_csv(rows)).columns["AAA"]
        assert calls == ["\x1c7\x1c"]
        expected = np.arange(1.0, 2049.0)
        expected[[1000, 1500]] = np.nan, 7.0
        np.testing.assert_array_equal(col.price, expected)

    @pytest.mark.parametrize("column", range(4))
    def test_number_fields_take_the_per_row_rules(self, column):
        fields = ["", "  ", "nan", "inf", "1_0", " 10.5 ", "\x1c2\x1c"]  # \x1c: str.strip only
        rows = []
        for field in fields:
            values = ["", "", "1", ""]  # no price field but the column's own
            values[column] = field
            rows += [f"AAA,{T0},{','.join(values)}", f"AAA,{T0},3,3,3,3"]
        table = parse_ticks(_tick_csv(rows))
        assert table.skipped == 2
        col = table.columns["AAA"]
        assert col.timestamp.size == 12
        if column == 2:
            return  # volume is checked, not stored
        nan = float("nan")  # blank is missing; "nan" and "inf" are skipped
        np.testing.assert_array_equal(col.price, [nan, 3, nan, 3, 3, 3, 10, 3, 10.5, 3, 2, 3])

    def test_stock_order_follows_first_valid_row_across_blocks(self):
        text = _tick_csv([
            "BBB,not-a-timestamp,1,1,1,1",     # block 1: BBB seen, but invalid
            f"AAA,{T0},1,1,1,1",
            "",
            f"CCC,{T0},1,1,1,-1",              # block 2: CCC invalid
            ",,,,,",
            f"CCC,2011-04-01T09:31:00.000Z,1,1,1,2",
            f"BBB,{T0},1,1,1,3",               # block 3: BBB's first valid row
            "   ",
            "AAA,2011-04-01T09:29:00.000Z,1,1,1,4",
        ])
        table = parse_ticks(text)
        assert table.stock_ids == ("AAA", "CCC", "BBB")
        assert table.skipped == 3
        assert table.columns["AAA"].price.tolist() == [4, 1]  # sorted by time
        expected, skipped = _oracle(text.decode())
        _assert_table(table, expected, skipped)

    def test_offset_beyond_years_1_to_9999_is_skipped(self):
        table = parse_ticks(_tick_csv([
            "AAA,0001-01-01T00:00:00+01:00,1,1,1,1",
            "AAA,9999-12-31T23:00:00-02:00,1,1,1,1",
            f"AAA,{T0},1,1,1,1",
        ]))
        assert table.n_records == 1
        assert table.skipped == 2
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp("0001-01-01T00:00:00+01:00")

    @pytest.mark.parametrize("stamp, decoded", [
        ("1900-02-29T00:00:00.000Z", False),
        ("2000-02-29T00:00:00.000Z", True),
        ("2012-02-29T23:59:59.999Z", True),
        ("2011-02-28T00:00:00.000Z", True),
        ("2011-04-31T00:00:00.000Z", False),
        ("2011-04-30T00:00:00.000Z", True),
        ("2011-00-01T00:00:00.000Z", False),
        ("2011-13-01T00:00:00.000Z", False),
        ("2011-04-00T00:00:00.000Z", False),
        ("2011-04-01T24:00:00.000Z", False),
        ("2011-04-01T23:60:00.000Z", False),
        ("2011-04-01T23:59:60.000Z", False),
        ("0000-12-31T00:00:00.000Z", False),
        ("0001-01-01T00:00:00.000Z", True),
        ("1969-12-31T23:59:59.999Z", True),
        ("1970-01-01T00:00:00.000Z", True),
        ("9999-12-31T23:59:59.999Z", True),
        ("\u0662\u0660\u0661\u0661-04-01T09:30:00.000Z", False),  # Arabic-Indic digits
        ("\uff12011-04-01T09:30:00.000Z", False),  # a fullwidth digit
        ("2011-04-01T09:30:00.000Z\x00", False),
        ("2011-04-01T09:30:00.000Z+01:00", False),
    ])
    def test_timestamp_decoder_matches_parse_timestamp(self, monkeypatch, stamp, decoded):
        """A canonical field is decoded without parse_timestamp, every other one by it."""
        calls = []

        def counted(text):
            calls.append(text)
            return parse_timestamp(text)

        try:
            expected = parse_timestamp(stamp)
        except ValueError:
            expected = np.datetime64("NaT", "ms")
        monkeypatch.setattr(market_data, "parse_timestamp", counted)
        out = market_data._parse_timestamps([T0, stamp])
        np.testing.assert_array_equal(out, np.array([parse_timestamp(T0), expected]))
        assert calls == ([] if decoded else [stamp])

    def test_long_quote_free_field_is_malformed_csv_at_its_line(self):
        rows = [f"AAA,{T0},1,1,1,1"] * 4 + [f"AAA,{T0},{'1' * 200_000},1,1,1"]
        with pytest.raises(DataError, match="malformed CSV at line 6: field larger"):
            parse_ticks(_tick_csv(rows))


_CANONICAL = st.integers(
    int(np.datetime64("-001-01-01", "ms").astype(np.int64)),
    int(np.datetime64("10001-01-01", "ms").astype(np.int64)),
).map(lambda ms: format_timestamp(np.datetime64(ms, "ms")))
_STAMPS = st.one_of(
    _CANONICAL,
    st.one_of(
        _CANONICAL.map(lambda s: s.replace("T", " ")),
        _CANONICAL.map(lambda s: s.lower()),
        _CANONICAL.map(lambda s: s[:-1] + "+02:00"),
        _CANONICAL.map(lambda s: s[:-5] + "Z"),
        st.sampled_from([
            "0000-01-01T00:00:00.000Z", "10000-01-01T00:00:00.000Z", "NaTZ", "",
            "2011-02-29T09:30:00.000Z", "2011-04-01T09:30:00.00ZZ", "0001-01-01T00:00:00+01:00",
            "2011-12-31T23:59:60.000Z", "2011-04-01T09:30:00.\xe900Z", "x" * 24,
        ]),
        st.text("0123456789-:.TZz +", max_size=26),
    ),
)
_NUMBERS = st.one_of(
    st.integers(1, 500).map(str),
    st.floats(min_value=0.5, max_value=1e6).map(repr),
    st.sampled_from(["", "  ", "nan", "inf", "-inf", "1_0", " 10.5 ", "x", "0", "-0.0", "-1",
                     "1e400", "\x1c2\x1c"]),
)
_ROWS = st.integers(0, 3).flatmap(  # one row in four blank or of the wrong length
    lambda k: st.sampled_from([[], [""], ["  "], ["AAA"], ["AAA", T0, "1", "1", "1"]]) if k == 0
    else st.tuples(st.sampled_from(["AAA", "BBB", " CCC ", "", "A,B", 'C"D', "E\nF", "G\x00"]),
                   _STAMPS,
                   _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS).map(list)
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_ROWS, max_size=25), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_block_parser_matches_per_row_oracle(rows, line_end, final_line_end):
    out = io.StringIO(newline="")
    out.write(HEADER.replace("\n", line_end))
    csv.writer(out, lineterminator=line_end).writerows(rows)
    text = out.getvalue()
    if not final_line_end:
        text = text.removesuffix(line_end)
    # a stream opened with newline="" breaks lines at "\r" too, a default StringIO does not
    for newline in ("", "\n"):
        reader = csv.reader(io.StringIO(text, newline=newline))
        try:
            for _ in reader:
                pass
            error = None
            expected, skipped = _oracle(text, newline)
        except csv.Error:  # a "\r" inside a "\n"-split line; a NUL before Python 3.11
            error = f"malformed CSV at line {reader.line_num}:"
        for block_rows in (1, 3, market_data._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(market_data, "_BLOCK_ROWS", block_rows)
                sources = [io.StringIO(text, newline=newline)]
                if newline == "":
                    sources.append(text.encode())
                for source in sources:
                    if error:
                        with pytest.raises(DataError, match=error):
                            parse_ticks(source)
                    else:
                        _assert_table(parse_ticks(source), expected, skipped)


class TestTimeGrid:
    def test_instants_strictly_increasing_required(self):
        inst = np.array(["2011-04-01T09:30", "2011-04-01T09:30"], dtype="datetime64[ms]")
        with pytest.raises(DataError, match="strictly increasing"):
            TimeGrid(inst)

    def test_truncated_keeps_most_recent(self):
        grid = _grid(10)
        cut = grid.truncated(4)
        assert cut.count == 4
        assert (cut.instants == grid.instants[6:]).all()


class TestFillMissing:
    def test_forward_fill(self):
        grid = _grid(4)
        table = _table_from_cells({"AAA": [10.0, None, None, 12.0]}, grid)
        matrix = fill_missing(table, grid)
        np.testing.assert_array_equal(matrix.values[:, 0], [10.0, 10.0, 10.0, 12.0])
        np.testing.assert_array_equal(matrix.fill_mask[:, 0], [False, True, True, False])

    def test_backward_fill_of_leading_gap(self):
        grid = _grid(4)
        table = _table_from_cells({"AAA": [None, None, 8.0, 9.0]}, grid)
        matrix = fill_missing(table, grid)
        np.testing.assert_array_equal(matrix.values[:, 0], [8.0, 8.0, 8.0, 9.0])
        np.testing.assert_array_equal(matrix.fill_mask[:, 0], [True, True, False, False])

    def test_random_gaps_match_per_cell_scan_oracle(self):
        rng = np.random.default_rng(11)
        grid = _grid(100)
        cells = [
            float(p) if keep else None
            for p, keep in zip(rng.uniform(5, 15, 100), rng.random(100) > 0.4)
        ]
        if not any(c is not None for c in cells):
            cells[50] = 7.0
        table = _table_from_cells({"AAA": cells}, grid)
        matrix = fill_missing(table, grid)

        def scan_oracle(i):
            for j in range(i, -1, -1):  # scan backward first
                if cells[j] is not None:
                    return cells[j]
            for j in range(i + 1, len(cells)):  # then forward
                if cells[j] is not None:
                    return cells[j]
            raise AssertionError("no observation at all")

        expected = [scan_oracle(i) for i in range(100)]
        np.testing.assert_array_equal(matrix.values[:, 0], expected)
        np.testing.assert_array_equal(matrix.fill_mask[:, 0], [c is None for c in cells])

    def test_idempotent_on_complete_matrix(self):
        grid = _grid(6)
        cells = {"AAA": [10, 11, 12, 13, 14, 15], "BBB": [20, 21, 22, 23, 24, 25]}
        table = _table_from_cells({k: [float(v) for v in vs] for k, vs in cells.items()}, grid)
        first = fill_missing(table, grid)
        assert not first.fill_mask.any()
        again = fill_missing(table, grid)
        np.testing.assert_array_equal(first.values, again.values)

    def test_columns_share_one_timestamp_vector(self):
        grid = _grid(5)
        table = _table_from_cells(
            {"AAA": [1.0, None, 2.0, None, 3.0], "BBB": [None, 5.0, None, 6.0, None]},
            grid,
        )
        matrix = fill_missing(table, grid)
        assert matrix.values.shape == (5, 2)
        assert matrix.grid.count == 5
        assert (matrix.grid.instants == grid.instants).all()

    def test_input_row_order_is_irrelevant(self):
        rng = np.random.default_rng(3)
        grid = _grid(30)
        cells = [float(p) if keep else None
                 for p, keep in zip(rng.uniform(5, 15, 30), rng.random(30) > 0.3)]
        rows = [f"AAA,{_iso(grid, i)},,,1,{p}" for i, p in enumerate(cells) if p is not None]
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        a = fill_missing(parse_ticks(_tick_csv(rows)), grid)
        b = fill_missing(parse_ticks(_tick_csv(shuffled)), grid)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.fill_mask, b.fill_mask)

    def test_observed_values_never_altered(self):
        rng = np.random.default_rng(5)
        grid = _grid(40)
        cells = [float(p) if keep else None
                 for p, keep in zip(rng.uniform(5, 15, 40), rng.random(40) > 0.5)]
        if not any(c is not None for c in cells):
            cells[0] = 9.0
        matrix = fill_missing(_table_from_cells({"AAA": cells}, grid), grid)
        for i, price in enumerate(cells):
            if price is not None:
                assert matrix.values[i, 0] == price
                assert not matrix.fill_mask[i, 0]

    def test_last_tick_in_bucket_wins(self):
        grid = _grid(2)
        rows = [
            f"AAA,2011-04-01T09:30:20.000Z,,,1,10.0",
            f"AAA,2011-04-01T09:30:40.000Z,,,1,11.0",  # later tick, same bucket
        ]
        matrix = fill_missing(parse_ticks(_tick_csv(rows)), grid)
        assert matrix.values[1, 0] == 11.0

    def test_stock_with_no_observation_is_dropped(self, caplog):
        grid = _grid(3)
        rows = [f"AAA,{_iso(grid, 0)},,,1,10.0", "BBB,2011-04-05T00:00:00.000Z,,,1,9.0"]
        with caplog.at_level("INFO", logger="trendlag.market_data"):
            matrix = fill_missing(parse_ticks(_tick_csv(rows)), grid)
        assert matrix.stock_ids == ("AAA",)
        assert caplog.messages == [
            f"fill_missing: dropped BBB: no priced tick at or before {_iso(grid, 2)}"
        ]

    def test_all_stocks_unobservable_is_fatal(self):
        grid = _grid(3)
        rows = ["BBB,2011-04-05T00:00:00.000Z,,,1,9.0"]
        with pytest.raises(DataError, match="no stock"):
            fill_missing(parse_ticks(_tick_csv(rows)), grid)


# A tick: (milliseconds from the grid start, its price or None for an unpriced tick)
_TICKS = st.lists(
    st.tuples(st.integers(-20, 140), st.none() | st.floats(0.5, 500.0)), max_size=12
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.lists(_TICKS, min_size=1, max_size=3))
def test_fill_missing_keeps_each_buckets_last_tick_and_masks_the_rest(n, stocks):
    """Against a per-tick scan on a 10 ms grid; ticks past its last instant fall out."""
    grid = _grid(n, step_seconds=0.01)
    start = np.datetime64(T0.rstrip("Z"), "ms")
    table, last = TickTable({}), {}
    for j, ticks in enumerate(stocks):
        ticks = sorted(ticks, key=lambda tick: tick[0])  # stable: equal times keep their order
        offsets = np.array([t for t, _ in ticks], dtype=np.int64)
        prices = np.array([math.nan if p is None else p for _, p in ticks])
        table.columns[f"S{j}"] = TickColumns(start + offsets.astype("timedelta64[ms]"), prices)
        cells = {}
        for t, p in ticks:
            cell = max(0, -(-t // 10))  # the first instant at or after the tick
            if p is not None and cell < n:
                cells[cell] = p
        if cells:
            last[f"S{j}"] = cells
    if not last:
        with pytest.raises(DataError, match="no stock"):
            fill_missing(table, grid)
        return
    matrix = fill_missing(table, grid)
    assert matrix.stock_ids == tuple(last)
    assert np.isfinite(matrix.values).all() and (matrix.values > 0).all()
    for j, cells in enumerate(last.values()):
        assert matrix.fill_mask[:, j].tolist() == [c not in cells for c in range(n)]
        assert {c: matrix.values[c, j] for c in cells} == cells


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(1, 30), st.integers(1, 8), st.floats(0.01, 1.0), st.data())
def test_select_consistent_stocks_keeps_recent_whole_steps_and_is_idempotent(
    rows, step, threshold, data
):
    n_stocks = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.booleans(), min_size=rows * n_stocks, max_size=rows * n_stocks))
    mask = np.reshape(cells, (rows, n_stocks))
    values = np.arange(1.0, rows * n_stocks + 1.0).reshape(rows, n_stocks)
    ids = tuple(f"S{j}" for j in range(n_stocks))
    matrix = PriceMatrix(_grid(rows), ids, values, mask)
    kept_rows = rows // step * step
    start = rows - kept_rows
    fraction = 1.0 - mask[start:].mean(axis=0) if kept_rows else np.zeros(n_stocks)
    if not (fraction >= threshold).any():
        with pytest.raises(DataError):
            select_consistent_stocks(matrix, threshold, step)
        return
    once = select_consistent_stocks(matrix, threshold, step)
    assert once.n_rows == kept_rows
    assert (once.grid.instants == matrix.grid.instants[start:]).all()
    assert once.stock_ids == tuple(s for s, f in zip(ids, fraction) if f >= threshold)
    assert (once.observed_fraction() >= threshold).all()
    columns = [ids.index(s) for s in once.stock_ids]
    np.testing.assert_array_equal(once.values, values[start:, columns])
    np.testing.assert_array_equal(once.fill_mask, mask[start:, columns])
    twice = select_consistent_stocks(once, threshold, step)
    assert twice.stock_ids == once.stock_ids
    assert (twice.grid.instants == once.grid.instants).all()
    np.testing.assert_array_equal(twice.values, once.values)
    np.testing.assert_array_equal(twice.fill_mask, once.fill_mask)


class TestSelectConsistentStocks:
    def _matrix_with_fractions(self, fractions, rows=100):
        grid = _grid(rows)
        rng = np.random.default_rng(2)
        values = rng.uniform(5, 15, (rows, len(fractions)))
        mask = np.zeros_like(values, dtype=bool)
        for j, frac in enumerate(fractions):
            n_filled = rows - int(round(frac * rows))
            mask[:n_filled, j] = True
        ids = tuple(f"S{j}" for j in range(len(fractions)))
        return PriceMatrix(grid, ids, values, mask)

    def test_presence_threshold(self, caplog):
        matrix = self._matrix_with_fractions([0.99, 0.95, 0.40])
        with caplog.at_level("INFO", logger="trendlag.market_data"):
            kept = select_consistent_stocks(matrix, 0.9, 1)
        assert kept.stock_ids == ("S0", "S1")
        assert caplog.messages == [
            "select_consistent_stocks: excluded S2: observed fraction 0.400 below threshold 0.9"
        ]

    def test_truncates_to_multiple_of_step_size(self):
        matrix = self._matrix_with_fractions([1.0], rows=1005)
        kept = select_consistent_stocks(matrix, 0.5, 10)
        assert kept.n_rows == 1000
        # oldest rows removed: surviving instants are the most recent 1000
        assert (kept.grid.instants == matrix.grid.instants[5:]).all()
        np.testing.assert_array_equal(kept.values, matrix.values[5:])
        # every stock kept: the rows are views, not a copy
        assert np.shares_memory(kept.values, matrix.values)
        assert np.shares_memory(kept.fill_mask, matrix.fill_mask)

    def test_threshold_boundaries(self):
        matrix = self._matrix_with_fractions([1.0, 0.97])
        with pytest.raises(DataError, match="min_observed_fraction"):
            select_consistent_stocks(matrix, 0.0, 1)
        only_full = select_consistent_stocks(matrix, 1.0, 1)
        assert only_full.stock_ids == ("S0",)

    def test_empty_universe_is_fatal(self):
        matrix = self._matrix_with_fractions([0.2, 0.3])
        with pytest.raises(DataError, match="threshold"):
            select_consistent_stocks(matrix, 0.9, 1)


class TestPriceMatrix:
    def test_repeated_stock_id_rejected(self, tmp_path):
        grid = _grid(3)
        with pytest.raises(DataError, match="repeated stock id.*: BBB"):
            PriceMatrix(grid, ("AAA", "BBB", "BBB"), np.ones((3, 3)), np.zeros((3, 3), bool))
        matrix = PriceMatrix(grid, ("AAA", "BBB"), np.ones((3, 2)), np.zeros((3, 2), bool))
        with pytest.raises(DataError, match="repeated stock id.*: AAA"):
            matrix.restrict(("AAA", "AAA"))
        path = tmp_path / "panel.csv"
        path.write_text(f"timestamp,AAA,BBB,AAA\n{T0},1,2,3\n")
        with pytest.raises(DataError, match="repeated stock id.*: AAA"):
            PriceMatrix.from_csv(path)


class TestPriceMatrixCsv:
    def test_round_trip_preserves_values_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = _grid(7)
        matrix = PriceMatrix(
            grid, ("AAA", "BBB"), rng.uniform(1, 500, (7, 2)),
            np.zeros((7, 2), dtype=bool),
        )
        path = tmp_path / "panel.csv"
        matrix.to_csv(path)
        loaded = PriceMatrix.from_csv(path)
        assert loaded.stock_ids == matrix.stock_ids
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert (loaded.grid.instants == matrix.grid.instants).all()

    def test_rejects_malformed_matrix_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(DataError):
            PriceMatrix.from_csv(path)
        path.write_text(f'timestamp,AAA\n{T0},"{"1" * 200_000}"\n')
        with pytest.raises(DataError, match="malformed CSV at line 2"):
            PriceMatrix.from_csv(path)
        path.write_bytes(f"timestamp,AAA\n{T0},\xff\n".encode("latin-1"))
        with pytest.raises(DataError, match="UTF-8"):
            PriceMatrix.from_csv(path)
        with pytest.raises(DataError, match="cannot read"):
            PriceMatrix.from_csv(tmp_path / "missing.csv")


class TestPriceMatrixCsvFaults:
    """What from_csv reads and which row it names, whatever the block size."""

    @pytest.fixture(autouse=True, params=[1, 3, 2048])
    def _block_rows(self, request, monkeypatch):
        monkeypatch.setattr(market_data, "_BLOCK_ROWS", request.param)

    @pytest.fixture
    def load(self, tmp_path):
        path = tmp_path / "panel.csv"

        def load(text):
            path.write_bytes(text.encode())
            return PriceMatrix.from_csv(path)

        load.path = path
        return load

    @staticmethod
    def _csv(*rows):
        return "".join(line + "\n" for line in ("timestamp,AAA,BBB", *rows))

    def _fault(self, load, text):
        with pytest.raises(DataError) as excinfo:
            load(text)
        prefix = f"{load.path}: "
        message = str(excinfo.value)
        assert message.startswith(prefix)
        return message[len(prefix):]

    def test_row_with_wrong_field_count(self, load):
        t = [_iso(_grid(3), i) for i in range(3)]
        assert self._fault(load, self._csv(f"{t[0]},1,2", f"{t[1]},1")) == (
            "row with 2 fields, expected 3"
        )
        assert self._fault(load, self._csv(f"{t[0]},1,2,3", f"{t[1]},1,2")) == (
            "row with 4 fields, expected 3"
        )

    def test_unparseable_number_names_its_row(self, load):
        t = [_iso(_grid(3), i) for i in range(3)]
        assert self._fault(load, self._csv(f"{t[0]},1,2", f"{t[1]},1.5,abc")) == (
            f"unparseable row {[t[1], '1.5', 'abc']!r}: could not convert string to float: 'abc'"
        )
        assert self._fault(load, self._csv(f"{t[0]},,2")) == (
            f"unparseable row {[t[0], '', '2']!r}: could not convert string to float: ''"
        )

    @pytest.mark.parametrize("stamp", ["2011-02-29T09:30:00.000Z", "not-a-time", "", "NaTZ"])
    def test_bad_timestamp_gives_the_reason_it_did_not_parse(self, load, stamp):
        with pytest.raises(ValueError) as reason:
            parse_timestamp(stamp)
        with pytest.raises(DataError) as excinfo:
            load(self._csv(f"{T0},1,2", f"{stamp},3,4"))
        assert str(excinfo.value) == (
            f"{load.path}: unparseable row {[stamp, '3', '4']!r}: {reason.value}"
        )
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_empty_lines_are_skipped_and_a_blank_one_is_a_row(self, load):
        t = [_iso(_grid(3), i) for i in range(3)]
        rows = "".join(f"{s},{i + 1}\r\n\r\n\r\n" for i, s in enumerate(t))
        text = "timestamp,AAA\r\n\r\n" + rows
        matrix = load(text)
        assert matrix.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert (matrix.grid.instants == _grid(3).instants).all()
        assert not matrix.fill_mask.any()
        assert self._fault(load, self._csv(f"{t[0]},1,2", " ", f"{t[1]},1,2")) == (
            "row with 1 fields, expected 3"
        )
        assert self._fault(load, "timestamp,AAA\n\n\n") == "price matrix has no data rows"

    def test_quoted_fields(self, load):
        t = [_iso(_grid(3), i) for i in range(3)]
        matrix = load(
            f'"timestamp"," A,1 ",B\n"{t[0]}","2.5", 3\n{t[1]},"7\n",1_000\n"{t[2]}",8,"9"\n'
        )
        assert matrix.stock_ids == ("A,1", "B")
        assert matrix.values.tolist() == [[2.5, 3.0], [7.0, 1000.0], [8.0, 9.0]]
        assert (matrix.grid.instants == _grid(3).instants).all()

    def test_the_first_faulty_row_in_file_order_is_named(self, load):
        t = [_iso(_grid(8), i) for i in range(8)]
        bad_time = "2011-02-29T09:30:00.000Z"
        with pytest.raises(ValueError) as reason:
            parse_timestamp(bad_time)
        good = [f"{t[0]},1,2", f"{t[1]},1,2", f"{t[2]},1,2"]
        bad_number = f"{t[3]},1,x"
        short = f"{t[4]},1"
        late = f"{bad_time},1,2"
        number_message = (
            f"unparseable row {[t[3], '1', 'x']!r}: could not convert string to float: 'x'"
        )
        time_message = f"unparseable row {[bad_time, '1', '2']!r}: {reason.value}"
        assert self._fault(load, self._csv(*good, bad_number, short, late)) == number_message
        assert self._fault(load, self._csv(*good, short, bad_number, late)) == (
            "row with 2 fields, expected 3"
        )
        assert self._fault(load, self._csv(*good, late, short, bad_number)) == time_message
        # within a row: the field count, then the timestamp, then the numbers
        assert self._fault(load, self._csv(*good, f"{bad_time},1")) == (
            "row with 2 fields, expected 3"
        )
        assert self._fault(load, self._csv(*good, f"{bad_time},1,x")) == (
            f"unparseable row {[bad_time, '1', 'x']!r}: {reason.value}"
        )
        assert self._fault(load, self._csv(*good, f"{t[3]},y,x")) == (
            f"unparseable row {[t[3], 'y', 'x']!r}: could not convert string to float: 'y'"
        )

    def test_row_faults_come_before_grid_and_value_checks(self, load):
        t = [_iso(_grid(6), i) for i in range(6)]
        rows = [f"{t[1]},1,2", f"{t[0]},nan,-1", f"{t[2]},1,2", f"{t[3]},1,2", f"{t[4]},1,x"]
        fault = self._fault(load, self._csv(*rows))
        assert fault.startswith(f"unparseable row {[t[4], '1', 'x']!r}")
        with pytest.raises(DataError, match="^time grid instants must be strictly increasing$"):
            load(self._csv(*rows[:-1]))
        rows[:2] = rows[1::-1]
        with pytest.raises(DataError, match="^price matrix must be finite and strictly positive$"):
            load(self._csv(*rows[:-1]))


def _matrix_oracle(path):
    """from_csv's rules row by row: every row read first, then the first faulty one named."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], [row for row in rows[1:] if row]
    if len(header) < 2 or header[0].strip().lower() != "timestamp":
        raise DataError(f"{path}: malformed price matrix header {header!r}")
    if not rows:
        raise DataError(f"{path}: price matrix has no data rows")
    instants, values = [], []
    for row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: row with {len(row)} fields, expected {len(header)}")
        try:
            instants.append(parse_timestamp(row[0]))
            values.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: unparseable row {row!r}: {exc}") from exc
    ids = tuple(h.strip() for h in header[1:])
    mask = np.zeros((len(rows), len(ids)), bool)
    return PriceMatrix(TimeGrid(np.array(instants)), ids, values, mask)


_PRICES = st.one_of(
    st.floats(min_value=0.5, max_value=1e6).map(repr), st.integers(1, 500).map(str), _NUMBERS
)
_MATRIX_ROWS = st.integers(0, 5).flatmap(  # one row in six blank or of the wrong length
    lambda k: st.sampled_from([[], [""], ["  "], [T0], [T0, "1", "2", "3"]]) if k == 0
    else st.tuples(st.none() | st.none() | _STAMPS, _PRICES, _PRICES).map(list)
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(_MATRIX_ROWS, min_size=1, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]))
def test_from_csv_matches_per_row_oracle(rows, line_end):
    """A stamp of None is the next minute of a rising grid, so some panels load."""
    grid = _grid(len(rows))
    rows = [[_iso(grid, i), *row[1:]] if row and row[0] is None else row
            for i, row in enumerate(rows)]
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator=line_end).writerows([["timestamp", "AAA", " B,B "], *rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        try:
            expected, error = _matrix_oracle(path), None
        except DataError as exc:
            expected, error = None, str(exc)
        for block_rows in (1, 3, market_data._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(market_data, "_BLOCK_ROWS", block_rows)
                if error is not None:
                    with pytest.raises(DataError) as excinfo:
                        PriceMatrix.from_csv(path)
                    assert str(excinfo.value) == error
                    continue
                matrix = PriceMatrix.from_csv(path)
                assert matrix.stock_ids == expected.stock_ids
                np.testing.assert_array_equal(matrix.grid.instants, expected.grid.instants)
                np.testing.assert_array_equal(matrix.values, expected.values)
                assert not matrix.fill_mask.any()


class TestIngestMemory:
    """Ingest holds about one copy of its data: peak bytes over the bytes it returns."""

    def test_parse_ticks_peak(self, tmp_path, traced_peak):
        grid = _grid(6000)
        stamps = [_iso(grid, i) for i in range(grid.count)]
        prices = np.random.default_rng(3).uniform(10, 500, (grid.count, 20)).round(4)
        path = tmp_path / "ticks.csv"
        path.write_text(HEADER + "".join(
            f"S{j:02d},{stamp},{p},{p},100,{p}\n"
            for stamp, row in zip(stamps, prices.tolist()) for j, p in enumerate(row)
        ))
        table, peak = traced_peak(lambda: parse_ticks(path))
        assert table.n_records == 120_000
        returned = sum(c.timestamp.nbytes + c.price.nbytes for c in table.columns.values())
        assert peak <= 2.5 * returned, f"peak {peak / returned:.2f}x the returned columns"

    def test_fill_missing_peak(self, traced_peak):
        grid = _grid(8000)
        rng = np.random.default_rng(4)
        table = TickTable({})
        for j in range(20):
            present = rng.random(grid.count) < 0.8
            prices = rng.uniform(10, 500, int(present.sum()))
            table.columns[f"S{j:02d}"] = TickColumns(grid.instants[present], prices)
        matrix, peak = traced_peak(lambda: fill_missing(table, grid))
        assert matrix.values.shape == (8000, 20) and matrix.fill_mask.any()
        returned = matrix.values.nbytes + matrix.fill_mask.nbytes
        assert peak <= 1.6 * returned, f"peak {peak / returned:.2f}x the values and mask"

    def test_from_csv_peak(self, tmp_path, traced_peak):
        grid = _grid(30_000)
        values = np.random.default_rng(5).uniform(10, 500, (grid.count, 8)).round(4)
        path = tmp_path / "panel.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("timestamp," + ",".join(f"S{j}" for j in range(8)) + "\n")
            fh.writelines(
                f"{_iso(grid, i)},{','.join(map(str, row))}\n"
                for i, row in enumerate(values.tolist())
            )
        matrix, peak = traced_peak(lambda: PriceMatrix.from_csv(path))
        np.testing.assert_array_equal(matrix.values, values)
        returned = matrix.values.nbytes + matrix.fill_mask.nbytes
        assert peak <= 2.5 * returned, f"peak {peak / returned:.2f}x the values and mask"
