"""Synthetic panel generator: reproducibility, planted structure, oracle."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from trendlag.errors import ConfigError
from trendlag.features import build_gradients
from trendlag.market_data import (
    fill_missing,
    format_timestamp,
    parse_ticks,
    select_consistent_stocks,
)
from trendlag.synth import (
    RegimeSwitch,
    SyntheticConfig,
    _ndtr,
    crisis_window,
    generate,
    oracle_accuracy,
    random_coupling,
    write_tick_csv,
)


def _config(**kwargs):
    defaults = dict(n_stocks=6, n_steps=300, ticks_per_step=8, seed=4)
    defaults.update(kwargs)
    return SyntheticConfig(**defaults)


class TestGenerate:
    def test_identical_seed_reproduces_panel(self):
        a = generate(_config(signal_strength=0.5))
        b = generate(_config(signal_strength=0.5))
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.grid.instants == b.grid.instants).all()

    def test_different_seed_changes_panel(self):
        a = generate(_config())
        b = generate(_config(seed=5))
        assert not np.array_equal(a.values, b.values)

    def test_shape_and_positivity(self):
        matrix = generate(_config(n_stocks=5, n_steps=100, ticks_per_step=4))
        assert matrix.values.shape == (400, 5)
        assert (matrix.values > 0).all()
        assert not matrix.fill_mask.any()

    def test_zero_signal_has_no_lagged_cross_correlation(self):
        config = _config(n_stocks=10, n_steps=1200, signal_strength=0.0, seed=2)
        gradients = build_gradients(generate(config), config.ticks_per_step).values
        k = gradients.shape[0]
        rho = np.empty((10, 10))
        for i in range(10):
            for j in range(10):
                rho[i, j] = np.corrcoef(gradients[:-1, i], gradients[1:, j])[0, 1]
        off_diag = rho[~np.eye(10, dtype=bool)]
        # spot pairs within the 3-sigma band; the max over 90 pairs gets slack
        assert abs(rho[0, 1]) < 3 / np.sqrt(k)
        assert abs(rho[3, 7]) < 3 / np.sqrt(k)
        assert np.abs(off_diag).max() < 4.5 / np.sqrt(k)

    def test_planted_signal_produces_lagged_correlation(self):
        config = _config(n_stocks=6, n_steps=800, signal_strength=0.9, seed=6)
        gradients = build_gradients(generate(config), config.ticks_per_step).values
        coupling = config.resolved_coupling()
        # each stock's gradient should track the coupling-weighted combination
        # of the others' previous gradients
        demeaned = gradients - gradients.mean(axis=1, keepdims=True)
        combination = demeaned[:-1] @ coupling.T
        for j in range(config.n_stocks):
            rho = np.corrcoef(combination[:, j], gradients[1:, j])[0, 1]
            assert rho > 6 / np.sqrt(gradients.shape[0])

    def test_crisis_segment_skews_direction_changes_down(self):
        config = _config(
            n_stocks=10, n_steps=2000, signal_strength=0.6, noise_sigma=0.01, seed=5,
            regime_switch=RegimeSwitch(switch_step=1500, crisis_drift=-0.002,
                                       crisis_sigma_multiplier=1.3),
        )
        gradients = build_gradients(generate(config), config.ticks_per_step).values
        diffs = np.diff(gradients, axis=0)
        crisis_down = np.mean(diffs[1500:] <= 0)
        stable_down = np.mean(diffs[:1500] <= 0)
        assert crisis_down > 0.52
        assert abs(stable_down - 0.5) < 0.02

    def test_crisis_prices_stay_bounded(self):
        config = _config(
            n_steps=2000, seed=9,
            regime_switch=RegimeSwitch(1500, -0.002, 1.5),
        )
        matrix = generate(config)
        assert matrix.values.min() > 1e-6 * config.start_price
        assert matrix.values.max() < 1e6 * config.start_price

    def test_invalid_coupling_shape_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            generate(_config(coupling_matrix=np.zeros((3, 3))))

    def test_nonzero_coupling_diagonal_rejected(self):
        bad = random_coupling(6, 1)
        bad[2, 2] = 0.5
        with pytest.raises(ConfigError, match="diagonal"):
            generate(_config(coupling_matrix=bad))

    def test_unparseable_start_rejected(self):
        with pytest.raises(ConfigError, match="start"):
            generate(_config(start="garbage"))

    def test_signal_amplitude_without_signal_is_not_squared(self):
        _config(signal_amplitude=1e300).validate()  # signal_strength 0: a zero signal term

    def test_grid_must_end_by_year_9999(self):
        # format_timestamp writes later instants, but parse_timestamp does not read them back
        _config(step_duration_seconds=1e8).validate()  # its 2400 rows end in year 9608
        with pytest.raises(ConfigError, match="step_duration_seconds"):
            generate(_config(step_duration_seconds=1.1e8))

    def test_switch_step_bounds(self):
        with pytest.raises(ConfigError, match="switch_step"):
            generate(_config(regime_switch=RegimeSwitch(300, -0.001)))

    def test_crisis_window_brackets_segment(self):
        config = _config(n_steps=400, regime_switch=RegimeSwitch(300, -0.001))
        start, end = crisis_window(config)
        matrix = generate(config)
        assert start == matrix.grid.instants[300 * config.ticks_per_step]
        assert end == matrix.grid.instants[-1]


class TestTickEmission:
    def test_round_trip_through_ingestion_is_exact(self, tmp_path):
        config = _config(n_stocks=4, n_steps=50, ticks_per_step=4)
        matrix = generate(config)
        path = tmp_path / "ticks.csv"
        n_rows = write_tick_csv(matrix, path)
        assert n_rows == matrix.n_rows * matrix.n_stocks
        table = parse_ticks(path)
        refilled = fill_missing(table, matrix.grid)
        rebuilt = refilled.restrict(matrix.stock_ids)
        np.testing.assert_array_equal(rebuilt.values, matrix.values)
        assert not rebuilt.fill_mask.any()

    def test_missing_fraction_exercises_fill(self, tmp_path):
        config = _config(n_stocks=4, n_steps=100, ticks_per_step=4)
        matrix = generate(config)
        path = tmp_path / "sparse.csv"
        write_tick_csv(matrix, path, missing_fraction=0.3, seed=8)
        refilled = fill_missing(parse_ticks(path), matrix.grid)
        assert refilled.fill_mask.any()
        # observed cells carry the original prices
        for j, stock in enumerate(refilled.stock_ids):
            col = matrix.values[:, matrix.stock_ids.index(stock)]
            observed = ~refilled.fill_mask[:, j]
            np.testing.assert_array_equal(refilled.values[observed, j], col[observed])
        kept = select_consistent_stocks(refilled, 0.5, config.ticks_per_step)
        assert kept.n_rows % config.ticks_per_step == 0


    def test_bytes_match_per_row_writer(self, tmp_path):
        """The column-at-a-time writer against one csv.writer row per kept cell."""
        matrix = generate(_config(n_stocks=4, n_steps=300, ticks_per_step=8))
        matrix = replace(matrix, stock_ids=("A,B", 'C"D') + matrix.stock_ids[2:])
        path, reference = tmp_path / "ticks.csv", tmp_path / "reference.csv"
        n_rows = write_tick_csv(matrix, path, missing_fraction=0.3, seed=8)
        rng = np.random.default_rng(8)
        written = 0
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("stock_id", "timestamp", "bid", "ask", "volume", "avg_price"))
            for i in range(matrix.n_rows):
                keep = rng.random(matrix.n_stocks) >= 0.3
                for j in np.flatnonzero(keep):
                    price = float(matrix.values[i, j])
                    writer.writerow((
                        matrix.stock_ids[j], format_timestamp(matrix.grid.instants[i]),
                        repr(price * (1.0 - 1e-4)), repr(price * (1.0 + 1e-4)), "100", repr(price),
                    ))
                    written += 1
        assert n_rows == written > 2048  # more than one block
        assert path.read_bytes() == reference.read_bytes()


# standard normal CDF at 22 significant digits (mpmath ncdf), frozen
NDTR_REFERENCE = [
    (-8.0, 6.220960574271784123516e-16),
    (-5.0, 2.866515718791939116738e-7),
    (-1.959963984540054, 0.02500000000000001087617),
    (-1.0, 0.1586552539314570514148),
    (-0.25, 0.4012936743170762757591),
    (0.0, 0.5),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (2.0, 0.9772498680518207927997),
    (3.0, 0.9986501019683699054733),
    (6.0, 0.9999999990134123549623),
]


class TestNdtr:
    def test_reference_values(self):
        x, expected = np.array(NDTR_REFERENCE).T
        np.testing.assert_allclose(_ndtr(x), expected, rtol=1e-14, atol=0)

    def test_symmetry(self):
        x = np.linspace(-9.0, 9.0, 721).reshape(7, -1)
        np.testing.assert_allclose(_ndtr(x) + _ndtr(-x), 1.0, rtol=0, atol=2e-16)
        assert _ndtr(x).shape == x.shape and _ndtr(x).dtype == np.float64

    def test_limits(self):
        np.testing.assert_array_equal(_ndtr(np.array([-np.inf, np.inf])), [0.0, 1.0])
        assert 0.0 < _ndtr(np.array([-37.0]))[0] < 1e-290  # the left tail does not underflow early


class TestOracle:
    def test_zero_signal_is_coin_flip(self):
        bound = oracle_accuracy(_config(n_stocks=8, n_steps=700, signal_strength=0.0, seed=7))
        assert abs(bound.estimate - 0.5) <= 4 * bound.monte_carlo_error

    def test_crisis_rally_mixture_is_predictable_without_signal(self):
        config = _config(n_stocks=10, n_steps=400, ticks_per_step=4, signal_strength=0.0, seed=5)
        calm = oracle_accuracy(config)
        crisis = oracle_accuracy(replace(config, regime_switch=RegimeSwitch(
            switch_step=100, crisis_drift=-0.002, crisis_sigma_multiplier=1.3
        )))
        assert abs(calm.estimate - 0.5) <= 3 * calm.monte_carlo_error
        # the persistent rallies and grinds of the crisis steps are the only edge
        assert crisis.estimate > 0.5 + 5 * crisis.monte_carlo_error

    def test_noiseless_limit_is_perfect(self):
        config = _config(
            n_stocks=6, n_steps=500, signal_strength=1.0, noise_sigma=0.0, micro_sigma=0.0
        )
        assert oracle_accuracy(config).estimate == 1.0

    def test_near_noiseless_is_near_perfect(self):
        config = _config(
            n_stocks=6, n_steps=500, signal_strength=1.0, noise_sigma=1e-6, micro_sigma=0.0, seed=3
        )
        assert oracle_accuracy(config).estimate > 0.95

    def test_monotone_in_signal_strength(self):
        estimates = [
            oracle_accuracy(_config(n_stocks=8, n_steps=700, signal_strength=s, seed=7)).estimate
            for s in (0.0, 0.4, 0.9)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_error_shrinks_with_samples(self):
        config = _config(n_stocks=8, n_steps=700, signal_strength=0.5, seed=11)
        small = oracle_accuracy(config, 10_000)
        large = oracle_accuracy(config, 40_000)
        assert large.n_samples > small.n_samples
        assert large.monte_carlo_error < small.monte_carlo_error

    def test_sample_floor_enforced(self):
        with pytest.raises(ConfigError, match="10000"):
            oracle_accuracy(_config(), 500)

    def test_bound_invariant(self):
        for s in (0.0, 0.5, 1.0):
            bound = oracle_accuracy(_config(n_stocks=6, n_steps=400, signal_strength=s, seed=13))
            assert 0.5 - 3 * bound.monte_carlo_error <= bound.estimate <= 1.0

    def test_two_steps_hold_no_change_to_score(self):
        with pytest.raises(ConfigError, match="n_steps >= 3"):
            oracle_accuracy(_config(n_steps=2))

    @pytest.mark.parametrize("config, n_mc, estimate, n_samples", [
        pytest.param(SyntheticConfig(
            n_stocks=20, n_steps=3000, ticks_per_step=16, signal_strength=0.8,
            noise_sigma=0.01, seed=501,
        ), 50_000, 0.7522681787858573, 59960, id="criterion-5"),
        pytest.param(SyntheticConfig(
            n_stocks=20, n_steps=2000, ticks_per_step=8, signal_strength=0.8,
            noise_sigma=0.01, seed=801,
            regime_switch=RegimeSwitch(switch_step=1500, crisis_drift=-0.002,
                                       crisis_sigma_multiplier=1.3),
        ), 10_000, 0.7267767767767768, 39960, id="criterion-8-crisis"),
    ])
    def test_pinned_at_acceptance_configs(self, config, n_mc, estimate, n_samples):
        """Bit for bit the bound that per-step price slopes in the simulator gave."""
        bound = oracle_accuracy(config, n_mc)
        assert (bound.estimate, bound.n_samples) == (estimate, n_samples)
