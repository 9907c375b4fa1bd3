"""Trend-gradient features, direction-change labels, and input normalization.

Each stock's price series is cut into disjoint windows of ``step_size``
consecutive rows; the least-squares slope over each window is that stock's
trend gradient for the interval.  Training examples pair all *other*
stocks' gradients at interval t-1 with a one-hot label saying whether the
target stock's gradient moved up or down from t-1 to t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .market_data import PriceMatrix

DOWN, UP = 0, 1  # one-hot component order: (down-change, up-change)


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares line over window-local abscissae 0..s-1."""

    intercept: float
    slope: float


def slope_weights(window: int) -> np.ndarray:
    """Weights w with slope = w @ y for the least-squares fit over x = 0..s-1."""
    if window < 2:
        raise ValueError(f"trend window must contain at least 2 prices, got {window}")
    x = np.arange(window, dtype=np.float64)
    dx = x - x.mean()
    return dx / (dx @ dx)


def fit_trend(prices: Sequence[float] | np.ndarray) -> RegressionFit:
    """Closed-form least-squares fit of one price window.

    Minimizes the squared residual sum over (intercept, slope); the slope
    is the trend gradient used throughout the pipeline.
    """
    y = np.asarray(prices, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("fit_trend expects a one-dimensional price window")
    s = y.size
    w = slope_weights(s)  # raises for s < 2
    slope = float(w @ y)
    intercept = float(y.mean() - slope * (s - 1) / 2.0)
    return RegressionFit(intercept=intercept, slope=slope)


@dataclass
class GradientMatrix:
    """Per-interval trend gradients: rows = N/s intervals, columns = stocks."""

    stock_ids: tuple[str, ...]
    values: np.ndarray
    interval_timestamps: np.ndarray  # instant of each interval's end

    def __post_init__(self) -> None:
        self.stock_ids = tuple(self.stock_ids)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.interval_timestamps = np.asarray(self.interval_timestamps, dtype="datetime64[ms]")
        if self.values.shape[0] != self.interval_timestamps.size:
            raise DataError("gradient rows do not match interval timestamps")
        if self.values.shape[1] != len(self.stock_ids):
            raise DataError("gradient columns do not match stock ids")

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0]

    @property
    def n_stocks(self) -> int:
        return self.values.shape[1]


def build_gradients(matrix: PriceMatrix, step_size: int) -> GradientMatrix:
    """Slice the price matrix into disjoint windows and fit each one.

    Row k, column j holds the slope of stock j over price rows
    [k*s, (k+1)*s); the row count must divide exactly (use
    select_consistent_stocks to truncate first).
    """
    if step_size < 2:
        raise DataError(f"gradient step size must be >= 2, got {step_size}")
    n_rows = matrix.n_rows
    if n_rows % step_size != 0:
        raise DataError(
            f"{n_rows} price rows are not divisible by step size {step_size}"
        )
    k = n_rows // step_size
    blocks = matrix.values.reshape(k, step_size, matrix.n_stocks)
    slopes = np.tensordot(blocks, slope_weights(step_size), axes=([1], [0]))
    ends = matrix.grid.instants[step_size - 1 :: step_size]
    return GradientMatrix(stock_ids=matrix.stock_ids, values=slopes, interval_timestamps=ends)


def direction_labels(gradients: GradientMatrix) -> np.ndarray:
    """Every stock's direction-change labels: (intervals - 1, stocks) of DOWN or UP.

    Row i, column j is UP iff stock j's gradient rises from interval i to
    i+1.  An exact tie g(t) == g(t-1) is labeled DOWN, so labels always
    partition.
    """
    if gradients.n_intervals < 2:
        raise DataError("need at least 2 gradient rows to build labels")
    return np.where(np.diff(gradients.values, axis=0) > 0, UP, DOWN)


def one_hot(labels: np.ndarray) -> np.ndarray:
    """(down-change, up-change) targets of integer labels, on a new last axis."""
    return np.eye(2)[labels]


def leave_target_out(rows: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """One input block per target column: (targets, rows, columns - 1).

    Block k is ``np.delete(rows, columns[k], axis=1)``, written in place.
    """
    out = np.empty((len(columns), rows.shape[0], rows.shape[1] - 1), dtype=rows.dtype)
    for inputs, j in zip(out, columns):
        inputs[:, :j], inputs[:, j:] = rows[:, :j], rows[:, j + 1 :]
    return out


def dataset_arrays(
    gradients: GradientMatrix, target_stock: str
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-target-out dataset for one target stock: (inputs, one-hot targets).

    Row i corresponds to predicted interval t = i+1: its inputs are the
    other stocks' gradients at t-1 (the target's own is excluded) and its
    target is the one-hot ``direction_labels`` of the move from t-1 to t.
    """
    labels = direction_labels(gradients)
    try:
        j = gradients.stock_ids.index(target_stock)
    except ValueError:
        raise DataError(f"unknown target stock {target_stock!r}") from None
    (inputs,) = leave_target_out(gradients.values[:-1], [j])
    return inputs, one_hot(labels[:, j])


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature minimum and maximum from the fitted (training) inputs."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape:
            raise DataError("normalization min/max shapes differ")
        if (self.maximum < self.minimum).any():
            raise DataError("normalization max must be >= min per feature")


def fit_normalizer(training_inputs: np.ndarray) -> NormalizationParams:
    """Column-wise min/max over the training inputs only (leak-free)."""
    x = np.atleast_2d(np.asarray(training_inputs, dtype=np.float64))
    if x.size == 0:
        raise DataError("cannot fit a normalizer on an empty training set")
    return NormalizationParams(minimum=x.min(axis=0), maximum=x.max(axis=0))


def apply_normalizer(params: NormalizationParams, inputs: np.ndarray) -> np.ndarray:
    """Map inputs through (x - min) / (max - min) per feature.

    Values from the fitted set land in [0, 1]; unseen values may fall
    outside and are deliberately not clipped.  A constant feature
    (max == min) maps to the neutral midpoint 0.5.
    """
    x = np.asarray(inputs, dtype=np.float64)
    span = params.maximum - params.minimum
    safe = np.where(span > 0, span, 1.0)
    out = (x - params.minimum) / safe
    return np.where(span > 0, out, 0.5)
