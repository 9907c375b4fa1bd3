"""Trend gradients, labels, and normalization against independent oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlag.errors import DataError
from trendlag.features import (
    DOWN,
    UP,
    GradientMatrix,
    apply_normalizer,
    build_gradients,
    dataset_arrays,
    direction_labels,
    fit_normalizer,
    fit_trend,
    leave_target_out,
    one_hot,
)
from trendlag.market_data import PriceMatrix, TimeGrid


def _matrix(values, step_seconds=60):
    from datetime import timedelta

    values = np.asarray(values, dtype=float)
    grid = TimeGrid.regular(
        "2011-04-01T09:30:00.000Z", timedelta(seconds=step_seconds), values.shape[0]
    )
    ids = tuple(f"S{j}" for j in range(values.shape[1]))
    return PriceMatrix(grid, ids, values, np.zeros_like(values, dtype=bool))


def _gradients(values):
    values = np.asarray(values, dtype=float)
    ts = np.arange(values.shape[0]).astype("datetime64[ms]")
    ids = tuple(f"S{j}" for j in range(values.shape[1]))
    return GradientMatrix(ids, values, ts)


def residual_sum(y, intercept, slope):
    x = np.arange(len(y))
    return float(np.sum((np.asarray(y) - intercept - slope * x) ** 2))


class TestFitTrend:
    def test_exact_line(self):
        fit = fit_trend([1, 2, 3, 4])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_constant_series(self):
        assert fit_trend([5, 5, 5]).slope == 0.0

    def test_known_window_against_closed_form(self):
        # hand computation: x mean 1.5, y mean 2.75,
        # sum dx*dy = 5.5, sum dx^2 = 5 -> slope 1.1, intercept 1.1
        fit = fit_trend([1, 3, 2, 5])
        assert fit.slope == pytest.approx(1.1, abs=1e-12)
        assert fit.intercept == pytest.approx(1.1, abs=1e-12)

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_trend([3.0])

    def test_residual_optimality_under_perturbation(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            y = rng.uniform(1, 10, rng.integers(2, 9))
            fit = fit_trend(y)
            q_star = residual_sum(y, fit.intercept, fit.slope)
            for eps_i, eps_s in [(1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3),
                                 (1e-3, 1e-3), (-1e-3, 1e-3)]:
                q = residual_sum(y, fit.intercept + eps_i, fit.slope + eps_s)
                assert q >= q_star - 1e-12

    def test_scale_equivariance_and_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.uniform(1, 10, 7)
            base = fit_trend(y)
            scaled = fit_trend(3.5 * y)
            assert scaled.slope == pytest.approx(3.5 * base.slope, rel=1e-12)
            shifted = fit_trend(y + 42.0)
            assert shifted.slope == pytest.approx(base.slope, abs=1e-12)


class TestBuildGradients:
    def test_two_window_example(self):
        matrix = _matrix(np.array([[1, 2, 3, 4, 8, 10, 12, 14]], dtype=float).T)
        grads = build_gradients(matrix, 4)
        np.testing.assert_allclose(grads.values[:, 0], [1.0, 2.0], atol=1e-12)

    def test_single_interval_when_step_equals_rows(self):
        matrix = _matrix(np.array([[1, 2, 3, 4, 5, 6]], dtype=float).T)
        grads = build_gradients(matrix, 6)
        assert grads.values.shape == (1, 1)
        assert grads.values[0, 0] == pytest.approx(1.0)

    def test_constant_prices_give_zero_gradients(self):
        matrix = _matrix(np.full((12, 3), 7.5))
        grads = build_gradients(matrix, 4)
        np.testing.assert_array_equal(grads.values, np.zeros((3, 3)))

    def test_non_divisible_rows_fatal(self):
        matrix = _matrix(np.full((10, 2), 3.0))
        with pytest.raises(DataError, match="divisible"):
            build_gradients(matrix, 4)

    def test_rows_match_every_fit_trend_window(self):
        rng = np.random.default_rng(8)
        matrix = _matrix(rng.uniform(5, 15, (24, 3)))
        grads = build_gradients(matrix, 6)
        assert grads.values.shape == (4, 3)
        for k in range(4):
            for j in range(3):
                expected = fit_trend(matrix.values[k * 6:(k + 1) * 6, j]).slope
                assert grads.values[k, j] == pytest.approx(expected, abs=1e-12)

    def test_interval_timestamps_are_window_ends(self):
        matrix = _matrix(np.full((8, 1), 2.0))
        grads = build_gradients(matrix, 4)
        assert (grads.interval_timestamps == matrix.grid.instants[[3, 7]]).all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(2, 8), st.integers(1, 5), st.integers(1, 3),
    st.floats(0.0, 1000.0), st.floats(0.01, 100.0), st.data(),
)
def test_build_gradients_is_the_window_slope_shift_invariant_and_scale_linear(
    step, intervals, n_stocks, shift, scale, data
):
    size = step * intervals * n_stocks
    prices = data.draw(st.lists(st.floats(1.0, 1000.0), min_size=size, max_size=size))
    matrix = _matrix(np.reshape(prices, (step * intervals, n_stocks)))
    grads = build_gradients(matrix, step).values
    expected = [
        [fit_trend(matrix.values[k * step:(k + 1) * step, j]).slope for j in range(n_stocks)]
        for k in range(intervals)
    ]
    np.testing.assert_allclose(grads, expected, rtol=1e-12, atol=1e-9)
    shifted = build_gradients(replace(matrix, values=matrix.values + shift), step).values
    np.testing.assert_allclose(shifted, grads, rtol=1e-9, atol=1e-9)
    scaled = build_gradients(replace(matrix, values=matrix.values * scale), step).values
    np.testing.assert_allclose(scaled, scale * grads, rtol=1e-9, atol=1e-9)


class TestBuildLabels:
    def test_up_down_sequence(self):
        grads = _gradients(np.array([[0.5], [0.7], [0.6]]))
        _, y = dataset_arrays(grads, "S0")
        # row i is the move into interval i + 1
        np.testing.assert_array_equal(y, [[0.0, 1.0], [1.0, 0.0]])  # up, down

    def test_input_width_for_many_stocks(self):
        rng = np.random.default_rng(13)
        grads = _gradients(rng.normal(size=(3, 449)))
        x, _ = dataset_arrays(grads, "S17")
        assert x.shape == (2, 448)

    def test_exact_tie_labels_down(self):
        grads = _gradients(np.array([[0.4], [0.4]]))
        _, y = dataset_arrays(grads, "S0")
        np.testing.assert_array_equal(y, [[1.0, 0.0]])

    def test_label_partition_property(self):
        rng = np.random.default_rng(6)
        grads = _gradients(rng.normal(size=(40, 5)))
        for stock in grads.stock_ids:
            _, y = dataset_arrays(grads, stock)
            assert y.shape == (39, 2)
            np.testing.assert_array_equal(y.sum(axis=1), np.ones(39))

    def test_leave_target_out_by_index_reconstruction(self):
        # gradients encode (interval, stock) so presence is detectable
        rows, stocks = 6, 5
        values = np.arange(rows * stocks, dtype=float).reshape(rows, stocks)
        grads = _gradients(values)
        for j, stock in enumerate(grads.stock_ids):
            x, _ = dataset_arrays(grads, stock)
            other = [c for c in range(stocks) if c != j]
            np.testing.assert_array_equal(x, values[:-1][:, other])
            assert not np.isin(values[:-1, j], x).any()

    def test_requires_two_rows(self):
        with pytest.raises(DataError, match="at least 2"):
            dataset_arrays(_gradients(np.ones((1, 3))), "S0")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(2, 12), st.integers(2, 6), st.data())
def test_labels_one_hot_and_leave_target_out_follow_their_numpy_definitions(
    distinct, n_rows, n_stocks, data
):
    # a few distinct rows drawn into many: whole rows repeat, so gradients tie
    row = st.lists(st.floats(-1e6, 1e6), min_size=n_stocks, max_size=n_stocks)
    pool = np.array(data.draw(st.lists(row, min_size=distinct, max_size=distinct)))
    order = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n_rows, max_size=n_rows))
    grads = _gradients(pool[order])
    labels = direction_labels(grads)
    assert labels.shape == (n_rows - 1, n_stocks)
    assert set(np.unique(labels)) <= {DOWN, UP}
    for j in range(n_stocks):
        np.testing.assert_array_equal(labels[:, j] == UP, np.diff(grads.values[:, j]) > 0)
    targets = one_hot(labels)
    assert targets.shape == (*labels.shape, 2)
    np.testing.assert_array_equal(targets.sum(axis=-1), 1.0)
    np.testing.assert_array_equal(targets[..., UP], labels == UP)
    columns = data.draw(st.lists(st.integers(0, n_stocks - 1), min_size=1, max_size=2 * n_stocks))
    blocks = leave_target_out(grads.values, columns)
    assert blocks.shape == (len(columns), n_rows, n_stocks - 1)
    for block, j in zip(blocks, columns):
        assert block.tobytes() == np.delete(grads.values, j, axis=1).tobytes()


class TestNormalizer:
    def test_endpoints_map_to_unit_interval(self):
        params = fit_normalizer(np.array([[2.0], [4.0], [6.0]]))
        out = apply_normalizer(params, np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_feature_maps_to_midpoint(self):
        params = fit_normalizer(np.array([[3.0], [3.0], [3.0]]))
        out = apply_normalizer(params, np.array([[3.0], [99.0]]))
        np.testing.assert_array_equal(out[:, 0], [0.5, 0.5])

    def test_unseen_values_escape_unit_interval_unclipped(self):
        params = fit_normalizer(np.array([[0.0], [1.0]]))
        out = apply_normalizer(params, np.array([[-1.0], [2.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 2.0])

    def test_fitted_set_lands_in_unit_interval(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 4))
        out = apply_normalizer(fit_normalizer(x), x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_refit_on_normalized_data_is_identity_like(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(30, 3))
        normalized = apply_normalizer(fit_normalizer(x), x)
        params = fit_normalizer(normalized)
        np.testing.assert_allclose(params.minimum, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(params.maximum, np.ones(3), atol=1e-15)

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            fit_normalizer(np.empty((0, 3)))
