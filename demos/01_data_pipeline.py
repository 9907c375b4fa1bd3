#!/usr/bin/env python3
"""Walk raw ticks through cleansing, alignment, and gradient extraction.

We fabricate a small tick stream with gaps and out-of-order rows, push it
through the ingestion pipeline, and end with per-interval trend gradients.
"""

import io
from datetime import timedelta

import numpy as np

from trendlag.features import build_gradients, dataset_arrays
from trendlag.market_data import TimeGrid, fill_missing, parse_ticks, select_consistent_stocks

# --- a tiny tick stream: two stocks, 12 minutes, some holes -------------
grid = TimeGrid.regular("2011-04-01T09:30:00.000Z", timedelta(minutes=1), 12)
rng = np.random.default_rng(1)

rows = ["stock_id,timestamp,bid,ask,volume,avg_price"]
for i, ts in enumerate(grid.instants):
    for stock, base in (("ACME", 100.0), ("GLOBEX", 40.0)):
        if rng.random() < 0.25 and i not in (0, 11):
            continue  # no trade this minute
        price = base * (1 + 0.001 * rng.standard_normal() + 0.0005 * i)
        rows.append(f"{stock},{ts}Z,{price * 0.9999:.4f},{price * 1.0001:.4f},100,{price:.4f}")
rows.append("ACME,not-a-timestamp,1,1,1,1")  # will be skipped and counted

table = parse_ticks(io.BytesIO("\n".join(rows).encode()))
print(f"parsed {table.n_records} ticks for {table.stock_ids}, skipped {table.skipped}")

# --- align on the shared grid, filling the holes -------------------------
matrix = fill_missing(table, grid)
print(f"\naligned matrix: {matrix.n_rows} rows x {matrix.n_stocks} stocks")
fractions = matrix.observed_fraction().round(2).tolist()
print(f"observed fractions: {dict(zip(matrix.stock_ids, fractions))}")
print("ACME column (filled cells marked *):")
col = matrix.stock_ids.index("ACME")
for i in range(matrix.n_rows):
    mark = "*" if matrix.fill_mask[i, col] else " "
    print(f"  {matrix.grid.instants[i]}  {matrix.values[i, col]:9.4f} {mark}")

# --- keep consistently present stocks, truncate for 4-step windows ------
kept = select_consistent_stocks(matrix, min_observed_fraction=0.5, step_size=4)
print(f"\nafter selection: {kept.n_rows} rows (multiple of 4), stocks {kept.stock_ids}")

# --- least-squares trend gradients per 4-minute interval ----------------
gradients = build_gradients(kept, step_size=4)
print(f"\ngradient matrix: {gradients.n_intervals} intervals x {gradients.n_stocks} stocks")
for k in range(gradients.n_intervals):
    values = "  ".join(f"{v:+.5f}" for v in gradients.values[k])
    print(f"  interval ending {gradients.interval_timestamps[k]}: {values}")

# --- leave-target-out training examples ---------------------------------
inputs, targets = dataset_arrays(gradients, target_stock="ACME")
print(f"\n{inputs.shape[0]} examples for target ACME; "
      f"each input has {inputs.shape[1]} entries (the other stocks)")
for i in range(inputs.shape[0]):
    direction = "up" if targets[i, 1] == 1 else "down"
    print(f"  interval {i + 1}: inputs {inputs[i].round(5)} -> {direction}")
