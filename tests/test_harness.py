"""Experiment orchestration: folds, splits, reports, config files, CLI."""

import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trendlag import cli, features, harness, neural
from trendlag.cli import main
from trendlag.errors import ConfigError, DataError
from trendlag.features import build_gradients, dataset_arrays
from trendlag.harness import (
    ALL_SERIES,
    ExperimentConfig,
    ExperimentReport,
    _fold_plan,
    _loaded_openblas,
    _run_per_stock,
    _split_train_pool,
    derive_seed,
    emit_report,
    load_experiment_config,
    load_price_matrix,
    run,
    run_bottleneck_sweep,
    run_crisis,
    run_cross_validated,
)
from trendlag.market_data import PriceMatrix, TimeGrid
from trendlag.synth import (
    RegimeSwitch,
    SyntheticConfig,
    crisis_window,
    generate,
    random_coupling,
)

FAST_NET = {
    "hidden_layers": (8,),
    "batch_size": 20,
    "max_epochs": 3,
    "early_stop_patience": 3,
}


def _assert_same_results(a, b):
    assert a.stocks == b.stocks
    assert a.mean_accuracies == b.mean_accuracies
    assert a.fold_hash == b.fold_hash


def _config(**kwargs):
    defaults = dict(
        synthetic=SyntheticConfig(
            n_stocks=4, n_steps=120, ticks_per_step=4, signal_strength=0.6, seed=3
        ),
        step_size=4,
        seed=11,
        network=dict(FAST_NET),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _crisis_config(**kwargs):
    syn = SyntheticConfig(
        n_stocks=5, n_steps=400, ticks_per_step=4, signal_strength=0.7,
        noise_sigma=0.01, seed=21,
        regime_switch=RegimeSwitch(switch_step=300, crisis_drift=-0.002,
                                   crisis_sigma_multiplier=1.2),
    )
    start, end = crisis_window(syn)
    defaults = dict(
        mode="crisis", synthetic=syn, step_size=4, seed=5,
        network=dict(FAST_NET), crisis_start=start, crisis_end=end,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _count_models(monkeypatch):
    """Patch ``neural.NetworkModel`` to log the layer sizes of every model built."""
    built = []

    class Counted(neural.NetworkModel):
        def __init__(self, config):
            built.append(config.layer_sizes())
            super().__init__(config)

    monkeypatch.setattr(neural, "NetworkModel", Counted)
    return built


def _sweep_config(**kwargs):
    return _config(mode="bottleneck_sweep", bottleneck_widths=(1, 2), **kwargs)


def _fold_splits(n_examples, **kwargs):
    """``_fold_plan``'s splits and skip reason for a one-stock panel of ``n_examples`` examples."""
    gradients = features.GradientMatrix(
        4, ("S0",), np.zeros((n_examples + 1, 1)), np.zeros(n_examples + 1, "datetime64[ms]")
    )
    splits, _, skip_reason = _fold_plan(_config(**kwargs), gradients)
    return splits, skip_reason


class TestFolds:
    def test_sixty_twenty_twenty_arithmetic(self):
        splits, skip_reason = _fold_splits(1000)
        assert skip_reason == ""
        assert [(t.size, v.size, s.size) for _, t, v, s in splits] == [(600, 200, 200)] * 5

    def test_folds_partition_the_examples(self):
        for n in (47, 100, 1003):
            splits, _ = _fold_splits(n)
            # the test blocks are contiguous and in time order
            np.testing.assert_array_equal(np.concatenate([s[3] for s in splits]), np.arange(n))
            for _, train, val, test in splits:
                joined = np.sort(np.concatenate((train, val, test)))
                np.testing.assert_array_equal(joined, np.arange(n))

    def test_too_small_a_panel_names_the_fold_count(self):
        # 5 examples in 4 folds leave the first fold a training pool of 3, and
        # a quarter of 3 is no validation example
        report = run_cross_validated(_config(
            n_folds=4,
            synthetic=SyntheticConfig(n_stocks=4, n_steps=6, ticks_per_step=4, seed=3),
        ))
        reasons = {s.skip_reason for s in report.stocks}
        assert reasons == {"5 examples are too few for 4 folds with validation"}

    def test_validation_is_the_chronological_tail(self):
        train, val = _split_train_pool(np.arange(80))
        np.testing.assert_array_equal(val, np.arange(60, 80))
        np.testing.assert_array_equal(train, np.arange(60))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "S001") == derive_seed(1, "S001")
        assert derive_seed(1, "S001") != derive_seed(1, "S002")
        assert derive_seed(1, "S001") != derive_seed(2, "S001")
        assert 0 <= derive_seed(99, "x") < 2**63


class TestRunCrossValidated:
    def test_report_structure_and_consistency(self):
        report = run_cross_validated(_config())
        assert len(report.stocks) == 4
        assert not any(r.skipped for r in report.stocks)
        for series in ALL_SERIES:
            sample = [r.accuracy_for(series) for r in report.stocks]
            assert report.mean_accuracies[series] == pytest.approx(float(np.mean(sample)))
        assert report.max_model_accuracy == pytest.approx(
            max(r.model_accuracy for r in report.stocks)
        )
        for r in report.stocks:
            assert len(r.fold_accuracies) == 5
            assert r.model_accuracy == pytest.approx(float(np.mean(r.fold_accuracies)))
            assert r.bestof_accuracy >= 0.5
            assert r.n_examples == 119

    def test_leave_target_out_in_assembled_datasets(self):
        config = _config()
        matrix = load_price_matrix(config)
        gradients = build_gradients(matrix, config.step_size)
        for j, stock in enumerate(gradients.stock_ids):
            x, _ = dataset_arrays(gradients, stock)
            other = [c for c in range(gradients.n_stocks) if c != j]
            np.testing.assert_array_equal(x, gradients.values[:-1][:, other])

    def test_determinism_across_runs_and_jobs(self):
        a = run_cross_validated(_config())
        b = run_cross_validated(_config())
        c = run_cross_validated(_config(jobs=3))
        for other in (b, c):
            assert a.stocks == other.stocks
            assert a.mean_accuracies == other.mean_accuracies
            assert a.welch_tests == other.welch_tests
            assert a.fold_hash == other.fold_hash
        assert a.to_json() == b.to_json() == c.to_json()

    def test_no_worker_outlives_a_run(self):
        run_cross_validated(_config(jobs=2))
        assert multiprocessing.active_children() == []
        parent = os.getpid()

        def fail_in_worker(stock_id):
            if os.getpid() == parent:
                return stock_id
            raise DataError(f"no data for {stock_id}")

        with pytest.raises(DataError, match="no data for"):
            _run_per_stock(_config(jobs=2), fail_in_worker, ["a", "b"])
        assert multiprocessing.active_children() == []

    def test_forked_worker_runs_one_blas_thread(self):
        libs = _loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS with a thread setter is loaded")
        getters = [getattr(lib, name.replace("_set_", "_get_")) for lib, name in libs]
        counts = _run_per_stock(_config(jobs=2), lambda _: [g() for g in getters], ["a", "b"])
        assert counts == [[1] * len(libs)] * 2

    def test_one_model_per_stock(self, monkeypatch):
        built = _count_models(monkeypatch)
        report = run_cross_validated(_config())
        assert not any(s.skipped for s in report.stocks)
        assert len(built) == len(report.stocks) == 4

    def test_different_seed_changes_results(self):
        a = run_cross_validated(_config())
        b = run_cross_validated(_config(seed=12))
        assert a.stocks != b.stocks

    def test_report_is_labelled_cross_validated_whatever_the_mode(self, tmp_path):
        # like run_crisis and run_bottleneck_sweep, the runner sets its own mode
        report = run_cross_validated(_crisis_config())
        assert report.mode == report.provenance["config"]["mode"] == "cross_validated"
        files = emit_report(report, tmp_path, formats=("json",))
        assert [p.name for p in files] == ["report_cross_validated.json"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "make_config", [_config, _crisis_config, _sweep_config], ids=["cross", "crisis", "sweep"]
    )
    def test_too_small_folds_skip_stock_with_annotation(self, monkeypatch, make_config, jobs):
        def no_pool(*args):
            raise AssertionError("a skipped experiment reached the per-stock runner")

        monkeypatch.setattr(harness, "_run_per_stock", no_pool)
        config = make_config(network={**FAST_NET, "batch_size": 1000}, jobs=jobs)
        for report in run(config):
            assert report.stocks and all(r.skipped for r in report.stocks)
            assert all("batch size" in r.skip_reason for r in report.stocks)
            assert report.mean_accuracies == {}
            assert report.welch_tests["bestof"] is None
        assert multiprocessing.active_children() == []

    def test_stock_filter_restricts_universe(self):
        report = run_cross_validated(_config(stock_filter=("S001", "S003")))
        assert tuple(r.stock_id for r in report.stocks) == ("S001", "S003")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_single_stock_left_is_a_data_error_naming_the_count(self, jobs):
        with pytest.raises(DataError, match="^1 stock\\(s\\) left after stock_filter and select_"):
            run_cross_validated(_config(stock_filter=("S001",), jobs=jobs))

    def test_passed_matrix_takes_the_stock_filter(self):
        config = _config(stock_filter=("S000", "S001", "S002"))
        passed = run_cross_validated(config, generate(config.synthetic))
        assert len(passed.stocks) == 3
        assert passed.to_json() == run_cross_validated(config).to_json()

    def test_half_filled_column_of_a_passed_matrix_is_excluded(self):
        matrix = generate(_config().synthetic)
        mask = matrix.fill_mask.copy()
        mask[::2, 1] = True
        report = run_cross_validated(_config(), replace(matrix, fill_mask=mask))
        assert [r.stock_id for r in report.stocks] == ["S000", "S002", "S003"]

    def test_passed_matrix_is_cut_to_its_most_recent_whole_intervals(self):
        matrix = generate(_config().synthetic)

        def last_rows(n):
            return PriceMatrix(
                TimeGrid(matrix.grid.instants[-n:]), matrix.stock_ids,
                matrix.values[-n:], matrix.fill_mask[-n:],
            )

        ragged = run_cross_validated(_config(), last_rows(matrix.n_rows - 2))
        whole = run_cross_validated(_config(), last_rows(matrix.n_rows - 4))
        assert ragged.to_json() == whole.to_json()

    def test_repeated_stock_filter_entry_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "load_price_matrix", None)  # rejected before any data
        with pytest.raises(ConfigError, match="stock_filter repeats S001"):
            run_cross_validated(_config(stock_filter=("S001", "S001", "S002")))

    def test_validate_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(synthetic=SyntheticConfig(), matrix_csv="x.csv").validate()
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig().validate()


class TestRunCrisis:
    def test_chronological_split(self):
        config = _crisis_config()
        matrix = load_price_matrix(config)
        gradients = build_gradients(matrix, config.step_size)
        times = gradients.interval_timestamps[1:]
        train = times[times < config.crisis_start]
        test = times[(times >= config.crisis_start) & (times <= config.crisis_end)]
        assert train.size and test.size
        assert train.max() < test.min()

    def test_report_and_test_segment_size(self):
        report = run_crisis(_crisis_config())
        assert not any(r.skipped for r in report.stocks)
        # test segment: intervals 300..399 -> 100 examples scored per stock
        assert all(r.n_examples == 100 for r in report.stocks)
        assert all(len(r.fold_accuracies) == 1 for r in report.stocks)

    def test_jobs_do_not_change_results(self):
        _assert_same_results(
            run_crisis(_crisis_config()), run_crisis(_crisis_config(jobs=2))
        )

    def test_boundary_beyond_data_is_fatal(self):
        config = _crisis_config()
        config.crisis_start = np.datetime64("2030-01-01T00:00:00", "ms")
        config.crisis_end = np.datetime64("2031-01-01T00:00:00", "ms")
        with pytest.raises(DataError, match="empty side"):
            run_crisis(config)

    def test_missing_boundaries_rejected_without_regime(self):
        config = _config(mode="crisis")
        with pytest.raises(ConfigError, match="crisis"):
            config.validate()

    @pytest.mark.parametrize("missing", ["crisis_start", "crisis_end"])
    def test_a_lone_boundary_is_rejected_naming_the_missing_one(self, missing):
        config = _crisis_config(**{missing: None})  # the regime switch could give a window
        with pytest.raises(ConfigError, match=f"{missing} is missing"):
            config.validate()

    def test_boundaries_derived_from_synthetic_regime(self):
        config = _crisis_config(crisis_start=None, crisis_end=None)
        report = run_crisis(config)
        assert all(r.n_examples == 100 for r in report.stocks)


class TestBottleneckSweep:
    def test_shared_folds_and_widths(self):
        reports = run_bottleneck_sweep(_sweep_config())
        assert [r.bottleneck for r in reports] == [1, 2, None]
        assert len({r.fold_hash for r in reports}) == 1
        assert all(r.mode == "bottleneck_sweep" for r in reports)
        assert all(r.provenance["config"]["mode"] == "bottleneck_sweep" for r in reports)

    def test_jobs_do_not_change_results(self):
        serial, parallel = (run_bottleneck_sweep(_sweep_config(jobs=j)) for j in (1, 2))
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            _assert_same_results(a, b)

    @pytest.mark.parametrize(
        "make_config, n_reports",
        [(_config, 1), (_crisis_config, 1), (_sweep_config, 3)],
        ids=["cross", "crisis", "sweep"],
    )
    def test_one_gradient_build_and_one_pool(self, monkeypatch, make_config, n_reports):
        calls = {"build_gradients": 0, "_run_per_stock": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(features, "build_gradients")
        counted(harness, "_run_per_stock")
        assert len(run(make_config(jobs=2))) == n_reports
        assert calls == {"build_gradients": 1, "_run_per_stock": 1}

    def test_one_model_per_width_and_stock(self, monkeypatch):
        built = _count_models(monkeypatch)
        reports = run_bottleneck_sweep(_config(bottleneck_widths=(2,)))
        assert len(reports) == 2
        assert Counter(built) == {(3, 8, 2, 2): 4, (3, 8, 2): 4}

    def test_each_width_matches_its_cross_validated_run(self):
        for report in run_bottleneck_sweep(_sweep_config(jobs=2)):
            alone = run_cross_validated(
                _config(network={**FAST_NET, "bottleneck": report.bottleneck})
            )
            _assert_same_results(report, alone)
            assert report.welch_tests == alone.welch_tests

    def test_default_mode_config_runs_as_sweep(self, tmp_path):
        reports = run_bottleneck_sweep(_config(bottleneck_widths=(2,)))
        assert [(r.mode, r.bottleneck) for r in reports] == [
            ("bottleneck_sweep", 2), ("bottleneck_sweep", None)
        ]
        for report in reports:
            emit_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"report_bottleneck_{w}{suffix}"
            for w in ("2", "none") for suffix in (".csv", ".json", "_box.csv")
        ]

    def test_seeds_shared_across_widths(self):
        config = _config(mode="bottleneck_sweep", bottleneck_widths=(1,))
        reports = run_bottleneck_sweep(config)
        seeds = [r.provenance["stock_seeds"] for r in reports]
        assert seeds[0] == seeds[1]

    def test_repeated_width_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(harness, "load_price_matrix", None)
        with pytest.raises(ConfigError, match="bottleneck_widths repeat 3"):
            run_bottleneck_sweep(_config(bottleneck_widths=(3, 1, 3)))

    def test_full_width_bottleneck_does_not_bind(self):
        # a bottleneck as wide as the hidden layers leaves accuracy in the
        # same range as the unconstrained network
        syn = SyntheticConfig(
            n_stocks=6, n_steps=400, ticks_per_step=4, signal_strength=0.8, seed=31
        )
        net = {"hidden_layers": (16, 16), "batch_size": 50, "max_epochs": 10,
               "early_stop_patience": 10}
        config = ExperimentConfig(
            mode="bottleneck_sweep", synthetic=syn, step_size=4, seed=13,
            network=net, bottleneck_widths=(16,),
        )
        wide, unconstrained = run_bottleneck_sweep(config)
        assert wide.bottleneck == 16 and unconstrained.bottleneck is None
        gap = abs(wide.mean_accuracies["model"] - unconstrained.mean_accuracies["model"])
        assert gap < 0.05


class TestReportSerialization:
    def test_json_round_trip_is_exact(self):
        report = run_cross_validated(_config())
        clone = ExperimentReport.from_dict(json.loads(report.to_json()))
        assert clone == report

    def test_csv_row_count_is_stocks_times_series(self, tmp_path):
        # ids with a comma and a quote are legal in tick and matrix CSVs
        matrix = load_price_matrix(_config())
        ids = ("A,B", 'C"D') + matrix.stock_ids[2:]
        report = run_cross_validated(_config(), replace(matrix, stock_ids=ids))
        files = emit_report(report, tmp_path, formats=("csv",))
        flat = next(p for p in files if p.name.endswith(".csv") and "box" not in p.name)
        with open(flat, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == len(report.stocks) * len(ALL_SERIES)
        assert {len(r) for r in rows} == {len(header)} == {6}
        assert [r[0] for r in rows[:: len(ALL_SERIES)]] == list(ids)

    def test_aggregate_means_recomputable_from_csv(self, tmp_path):
        report = run_cross_validated(_config())
        files = emit_report(report, tmp_path, formats=("csv",))
        flat = next(p for p in files if "box" not in p.name)
        with open(flat) as fh:
            rows = list(csv.DictReader(fh))
        for series in ALL_SERIES:
            values = [
                float(r["accuracy"])
                for r in rows
                if r["series"] == series and r["accuracy"] != ""
            ]
            assert report.mean_accuracies[series] == pytest.approx(np.mean(values))

    def test_box_csv_written(self, tmp_path):
        report = run_cross_validated(_config())
        files = emit_report(report, tmp_path)
        names = {p.name for p in files}
        assert any(n.endswith("_box.csv") for n in names)
        assert any(n.endswith(".json") for n in names)

    def test_unknown_format_rejected(self, tmp_path):
        report = run_cross_validated(_config())
        with pytest.raises(ConfigError, match="format"):
            emit_report(report, tmp_path, formats=("xml",))


CONFIG_TEMPLATE = """
[data]
source = synthetic

[synthetic]
n_stocks = 4
n_steps = 120
ticks_per_step = 4
signal_strength = 0.6
seed = 3

[network]
hidden_layers = 8
batch_size = 20
max_epochs = 3
early_stop_patience = 3

[experiment]
mode = cross
step_size = 4
seed = 11
out = {out}
"""


# Writes a 5-stock matrix CSV and tick CSV whose first stock id is not ASCII,
# and checks that the tick file parses back to that id.
NON_ASCII_PANEL = """
import sys
from dataclasses import replace
from trendlag import market_data, synth
matrix = synth.generate(synth.SyntheticConfig(
    n_stocks=5, n_steps=120, ticks_per_step=4, signal_strength=0.6, seed=3))
matrix = replace(matrix, stock_ids=("\\u00c41",) + matrix.stock_ids[1:])
matrix.to_csv(sys.argv[1])
synth.write_tick_csv(matrix, sys.argv[2])
assert "\\u00c41" in market_data.parse_ticks(sys.argv[2]).columns
"""


BAD_CONFIGS = [
    # (text in CONFIG_TEMPLATE, its replacement, expected CLI exit code)
    pytest.param("n_stocks = 4", "n_stocks = four", 1, id="int-not-a-number"),
    # shuffled_folds, the key of the deleted shuffled-folds ablation, is unknown
    pytest.param("[experiment]\n", "[experiment]\nshuffled_folds = maybe\n", 1, id="bool"),
    pytest.param("hidden_layers = 8", "hidden_layers =", 1, id="no-hidden-layers"),
    pytest.param("[synthetic]\n", "[synthetic]\ncrisis_drift = -0.01\n", 1,
                 id="crisis-drift-without-switch"),
    pytest.param("[synthetic]\n", "[synthetic]\ncrisis_sigma_multiplier = 1.5\n", 1,
                 id="crisis-sigma-without-switch"),
    pytest.param("[synthetic]\n", "[synthetic]\nregime_switch_step = ten\n", 1,
                 id="switch-step-not-a-number"),
    pytest.param("[synthetic]\n", "[synthetic]\nregime_switch_step = 60\ncrisis_drift = inf\n", 1,
                 id="inf-crisis-drift"),
    pytest.param("[experiment]\n", "[experiment]\ncrisis_start = garbage\n", 1,
                 id="bad-timestamp"),
    pytest.param("[experiment]\n", "[experiment]\njobs = 0\n", 1, id="jobs-zero"),
    pytest.param("[experiment]\n", "[experiment]\nn_folds = 1\n", 1, id="one-fold"),
    pytest.param("[network]\n", "[network]\ninput_dim = 3\n", 1, id="derived-network-key"),
    pytest.param("mode = cross", "mode = sideways", 1, id="unknown-mode"),
    pytest.param("[data]\n", "[data]\nmatrix_csv = panel.csv\n", 1, id="two-sources"),
    pytest.param("source = synthetic\n", "matrix_csv = panel.csv\n", 1, id="two-sources-no-source-key"),
    pytest.param("[data]\n", "[data]\nstock_filter = ZZZ\n", 2, id="unknown-stock"),
    pytest.param("[data]\n", "[data]\nstock_filter = S001, S002, S001\n", 1,
                 id="repeated-stock-filter-entry"),
    pytest.param("mode = cross", "mode = bottleneck\nbottleneck_widths = 3, 3", 1,
                 id="repeated-bottleneck-width"),
    pytest.param("step_size = 4", "step_size = 1000", 2, id="step-beyond-data"),
    pytest.param("[experiment]\n", "[experiment]\njobs = 1\n[experiment]\n", 1,
                 id="duplicate-section"),
    pytest.param("\n[data]\n", "step_size = 4\n[data]\n", 1, id="missing-section-header"),
    pytest.param("[network]\n", "[network]\nlearning_rate = nan\n", 1, id="nan-float"),
    # a batch larger than every fold skips each stock before any net is built
    pytest.param("batch_size = 20", "batch_size = 100000\nlearning_rate = -1", 1,
                 id="bad-network-value-no-net-built"),
    pytest.param("[synthetic]\n", "[synthetic]\nnoise_sigma = inf\n", 1, id="inf-float"),
    pytest.param("[synthetic]\n", "[synthetic]\nstart = garbage\n", 1, id="bad-synthetic-start"),
    # checked up front, although a synthetic source never reads the [data] values
    pytest.param("[data]\n", "[data]\nmin_observed_fraction = 1.5\n", 1,
                 id="observed-fraction-above-one"),
    # price_source, the key of the deleted tick price choice, is unknown
    pytest.param("[data]\n", "[data]\nprice_source = bogus\n", 1, id="unknown-price-source"),
    pytest.param("[data]\n", "[data]\ngrid_step_seconds = -1\n", 1, id="negative-grid-step"),
    # rounds to a 0 ms grid step
    pytest.param("[data]\n", "[data]\ngrid_step_seconds = 0.0004\n", 1, id="sub-millisecond-grid-step"),
    pytest.param("[experiment]\n", "[experiment]\ncrisis_start = 2006-01-02T00:00:00Z\n"
                 "crisis_end = 2006-01-01T00:00:00Z\n", 1, id="crisis-end-before-start"),
    pytest.param("[experiment]\n", "[experiment]\ncrisis_start = 2006-01-01T00:00:00Z\n", 1,
                 id="lone-crisis-start"),
    pytest.param("seed = 3", "seed = -1", 1, id="negative-synthetic-seed"),
    pytest.param("[network]\n", "[network]\noutput_dim = 2\n", 1, id="output-dim-not-a-key"),
    pytest.param("[synthetic]\n", "[synthetic]\ncoupling_seed = x\n", 1,
                 id="coupling-seed-not-a-number"),
]

# BAD_CONFIGS cases with a value its field's type cannot parse, and the key named
CAST_ERRORS = {
    "int-not-a-number": "[synthetic] n_stocks",
    "inf-crisis-drift": "[synthetic] crisis_drift",
    "bad-timestamp": "[experiment] crisis_start",
    "nan-float": "[network] learning_rate",
    "coupling-seed-not-a-number": "[synthetic] coupling_seed",
}

GOLDEN_CONFIG = """
[data]
source = synthetic
stock_filter = S000, S002

[synthetic]
n_stocks = 3
n_steps = 120
ticks_per_step = 4
signal_strength = 0.5
coupling_seed = 9
regime_switch_step = 90
crisis_drift = -0.001
crisis_sigma_multiplier = 1.5
start = 2010-03-01T09:30:00Z
seed = 5

[network]
hidden_layers = 8
bottleneck = none
batch_size = 20
max_epochs = 2

[experiment]
mode = crisis
step_size = 4
bottleneck_widths = 2, 4
crisis_start = 2010-03-01T15:30:00Z
crisis_end = 2010-03-01T17:29:00Z
n_folds = 4
seed = 3
out = {out}
"""


class TestConfigFile:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        config = load_experiment_config(path)
        assert config.mode == "cross_validated"
        assert config.synthetic.n_stocks == 4
        assert config.network["hidden_layers"] == (8,)
        assert config.step_size == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmode = cross\nbogus = 1\n[data]\nsource=synthetic\n[synthetic]\nn_stocks=4\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_experiment_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.ini")

    def test_crisis_keys(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[data]\nsource = synthetic\n"
            "[synthetic]\nn_stocks = 4\nn_steps = 200\nticks_per_step = 4\n"
            "regime_switch_step = 150\ncrisis_drift = -0.002\n"
            "[experiment]\nmode = crisis\nstep_size = 4\n"
        )
        config = load_experiment_config(path)
        assert config.synthetic.regime_switch.switch_step == 150
        config.validate()  # boundaries derivable from the regime switch

    def test_switch_step_alone_takes_the_regime_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        text = CONFIG_TEMPLATE.format(out=tmp_path / "results")
        path.write_text(text.replace("[synthetic]\n", "[synthetic]\nregime_switch_step = 60\n"))
        assert load_experiment_config(path).synthetic.regime_switch == RegimeSwitch(60, 0.0, 1.0)

    @pytest.mark.parametrize("source, key", [("ticks", "tick_csv"), ("matrix", "matrix_csv")])
    def test_source_picks_the_run_data_beside_a_synthetic_section(self, tmp_path, source, key):
        # synth generates the file from [synthetic]; run then reads that file
        data, out, path = tmp_path / "panel.csv", tmp_path / "results", tmp_path / "exp.ini"
        text = CONFIG_TEMPLATE.format(out=out)
        path.write_text(text.replace("source = synthetic\n", f"source = {source}\n{key} = {data}\n"))
        assert main(["synth", "--config", str(path), "--out", str(data), "--format", source]) == 0
        assert main(["run", "--config", str(path)]) == 0
        payload = json.loads((out / "report_cross_validated.json").read_text())
        snapshot = payload["provenance"]["config"]
        assert (snapshot[key], snapshot["synthetic"]) == (str(data), None)
        assert len(payload["stocks"]) == 4

    @pytest.mark.parametrize("old, new, code", BAD_CONFIGS)
    def test_bad_config_exit_code(self, tmp_path, old, new, code):
        text = CONFIG_TEMPLATE.format(out=tmp_path / "results")
        assert old in text
        path = tmp_path / "exp.ini"
        path.write_text(text.replace(old, new, 1))
        assert main(["run", "--config", str(path)]) == code

    @pytest.mark.parametrize(
        "old, new, key",
        [pytest.param(*p.values[:2], CAST_ERRORS[p.id], id=p.id)
         for p in BAD_CONFIGS if p.id in CAST_ERRORS],
    )
    def test_cast_error_names_section_and_key(self, tmp_path, capsys, old, new, key):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results").replace(old, new, 1))
        assert main(["run", "--config", str(path)]) == 1
        assert f"{path}: {key}: " in capsys.readouterr().err

    def test_config_snapshot_covers_every_irregular_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(GOLDEN_CONFIG.format(out=tmp_path / "results"))
        (report,) = run(load_experiment_config(path))
        expected = {
            "mode": "crisis",
            "tick_csv": None,
            "matrix_csv": None,
            "step_size": 4,
            "grid_step_seconds": 60.0,
            "min_observed_fraction": 0.9,
            "stock_filter": ["S000", "S002"],
            "network": {"hidden_layers": [8], "bottleneck": None, "batch_size": 20, "max_epochs": 2},
            "bottleneck_widths": [2, 4],
            "crisis_start": "2010-03-01T15:30:00.000Z",
            "crisis_end": "2010-03-01T17:29:00.000Z",
            "n_folds": 4,
            "seed": 3,
            "synthetic": {
                "n_stocks": 3,
                "n_steps": 120,
                "ticks_per_step": 4,
                "signal_strength": 0.5,
                "coupling_matrix": random_coupling(3, 9).tolist(),
                "noise_sigma": 0.01,
                "drift": 0.0,
                "micro_sigma": None,
                "signal_amplitude": 0.02,
                "regime_switch": {
                    "switch_step": 90, "crisis_drift": -0.001, "crisis_sigma_multiplier": 1.5,
                },
                "seed": 5,
                "start": "2010-03-01T09:30:00Z",
                "step_duration_seconds": 60.0,
                "start_price": 100.0,
            },
        }
        snapshot = report.provenance["config"]
        assert snapshot == expected
        assert json.dumps(snapshot) == json.dumps(expected)  # key order too
        assert [s.stock_id for s in report.stocks] == ["S000", "S002"]

    def test_matrix_source(self, tmp_path):
        matrix = generate(SyntheticConfig(n_stocks=3, n_steps=40, ticks_per_step=4, seed=1))
        csv_path = tmp_path / "panel.csv"
        matrix.to_csv(csv_path)
        path = tmp_path / "exp.ini"
        path.write_text(f"[data]\nsource = matrix\nmatrix_csv = {csv_path}\n[experiment]\nstep_size = 4\n")
        config = load_experiment_config(path)
        loaded = load_price_matrix(config)
        np.testing.assert_array_equal(loaded.values, matrix.values)


class TestTickSourcePipeline:
    def test_ticks_to_experiment(self, tmp_path):
        from trendlag.synth import write_tick_csv

        syn = SyntheticConfig(n_stocks=4, n_steps=100, ticks_per_step=4, signal_strength=0.5, seed=2)
        matrix = generate(syn)
        ticks = tmp_path / "ticks.csv"
        write_tick_csv(matrix, ticks, missing_fraction=0.05, seed=3)
        config = ExperimentConfig(
            tick_csv=str(ticks), step_size=4, seed=1, network=dict(FAST_NET),
            grid_step_seconds=syn.step_duration_seconds, min_observed_fraction=0.5,
        )
        report = run_cross_validated(config)
        assert len(report.stocks) == 4


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        out = tmp_path / "results"
        path.write_text(CONFIG_TEMPLATE.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        report_json = out / "report_cross_validated.json"
        assert report_json.exists()
        payload = json.loads(report_json.read_text())
        assert payload["mode"] == "cross_validated"
        captured = capsys.readouterr()
        assert "mean accuracy" in captured.out

    def test_run_cli_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        out = tmp_path / "r1"
        path.write_text(CONFIG_TEMPLATE.format(out=out))
        out2 = tmp_path / "r2"
        assert main(["run", "--config", str(path), "--out", str(out2), "--seed", "99", "--jobs", "2"]) == 0
        assert (out2 / "report_cross_validated.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[experiment]\nmode = nonsense\n")
        assert main(["run", "--config", str(path)]) == 1
        path.write_bytes(b"[experiment]\n# \xff\nstep_size = 4\n")
        assert main(["run", "--config", str(path)]) == 1  # not UTF-8

    @pytest.mark.parametrize("fmt", ["matrix", "ticks"])
    def test_synth_out_path_that_is_a_directory_rejected_before_generating(
        self, tmp_path, monkeypatch, capsys, fmt
    ):
        generated = []
        monkeypatch.setattr(cli, "generate", lambda config: generated.append(config))
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["synth", "--config", str(path), "--out", str(taken), "--format", fmt]) == 1
        assert generated == []
        assert str(taken) in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_config_error_raised_in_a_worker_exit_code(self, tmp_path, monkeypatch, jobs):
        def reject(*args, **kwargs):
            raise ConfigError("rejected inside the per-stock task")

        monkeypatch.setattr(harness, "_train_and_predict", reject)  # inherited by fork
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        assert main(["run", "--config", str(path), "--jobs", str(jobs)]) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_network_value_error_exit_code(self, tmp_path, jobs):
        path = tmp_path / "exp.ini"
        text = CONFIG_TEMPLATE.format(out=tmp_path / "results")
        path.write_text(text.replace("[network]\n", "[network]\nlearning_rate = -1\n", 1))
        assert main(["run", "--config", str(path), "--jobs", str(jobs)]) == 1

    def test_out_path_that_is_a_file_rejected_before_training(self, tmp_path, monkeypatch, capsys):
        reached = []

        def train_and_predict(*args, **kwargs):
            reached.append(args)
            raise RuntimeError("trained although the output path is a file")

        monkeypatch.setattr(harness, "_train_and_predict", train_and_predict)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        assert main(["run", "--config", str(path), "--out", str(taken)]) == 1
        path.write_text(CONFIG_TEMPLATE.format(out=taken))
        assert main(["run", "--config", str(path)]) == 1
        assert reached == []
        assert capsys.readouterr().err.count(str(taken)) == 2
        assert taken.read_text() == "a file\n"

    def test_data_error_exit_code(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[data]\nsource = ticks\ntick_csv = /nonexistent/ticks.csv\n"
            "[experiment]\nstep_size = 4\n"
        )
        assert main(["run", "--config", str(path)]) == 2  # unreadable data source
        ticks = tmp_path / "ticks.csv"
        ticks.write_bytes(b"stock_id,timestamp,bid,ask,volume,avg_price\nAAA,\xff\n")
        path.write_text(
            f"[data]\nsource = ticks\ntick_csv = {ticks}\n[experiment]\nstep_size = 4\n"
        )
        assert main(["run", "--config", str(path)]) == 2  # not UTF-8
        ticks.write_text(f'stock_id,timestamp,bid,ask,volume,avg_price\nAAA,"{"x" * 200_000}",,,,\n')
        assert main(["run", "--config", str(path)]) == 2  # a field beyond the CSV limit
        matrix = tmp_path / "panel.csv"
        path.write_text(
            f"[data]\nsource = matrix\nmatrix_csv = {matrix}\n[experiment]\nstep_size = 4\n"
        )
        assert main(["run", "--config", str(path)]) == 2  # missing matrix file
        matrix.write_bytes(b"timestamp,AAA\n2011-04-01T09:30:00.000Z,\xff\n")
        assert main(["run", "--config", str(path)]) == 2  # matrix file not UTF-8

    def test_matrix_csv_with_a_repeated_stock_id_exit_code(self, tmp_path, capsys):
        matrix = tmp_path / "panel.csv"
        generate(SyntheticConfig(n_stocks=3, n_steps=40, ticks_per_step=4, seed=1)).to_csv(matrix)
        header, *rows = matrix.read_text().splitlines()
        assert header == "timestamp,S000,S001,S002"
        matrix.write_text("\n".join(["timestamp,S001,S001,S002", *rows]) + "\n")
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[data]\nsource = matrix\nmatrix_csv = {matrix}\n[experiment]\nstep_size = 4\n"
            f"out = {tmp_path / 'results'}\n"
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "repeated stock id(s): S001" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_synth_subcommand_matrix_and_ticks(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path))
        matrix_out = tmp_path / "panel.csv"
        assert main(["synth", "--config", str(path), "--out", str(matrix_out)]) == 0
        assert matrix_out.exists()
        ticks_out = tmp_path / "ticks.csv"
        assert main(["synth", "--config", str(path), "--out", str(ticks_out), "--format", "ticks"]) == 0
        assert ticks_out.read_text().startswith("stock_id,timestamp")

    def test_report_subcommand(self, tmp_path):
        path = tmp_path / "exp.ini"
        out = tmp_path / "results"
        path.write_text(CONFIG_TEMPLATE.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        report_json = out / "report_cross_validated.json"
        assert main(["report", "--in", str(report_json), "--format", "csv"]) == 0
        assert (out / "report_cross_validated.csv").exists()

    def test_report_converts_a_report_with_run_time_provenance(self, tmp_path):
        # reports once carried the run time, the creation time, a copy of the
        # seed, the jobs setting, the removed shuffled-folds switch and the removed
        # price_source setting; such a file converts as the run's own did
        path = tmp_path / "exp.ini"
        out = tmp_path / "results"
        path.write_text(CONFIG_TEMPLATE.format(out=out).replace("n_stocks = 4", "n_stocks = 6"))
        assert main(["run", "--config", str(path)]) == 0
        payload = json.loads((out / "report_cross_validated.json").read_text())
        payload["provenance"].update(
            wall_clock_seconds=1.25, created_utc="2026-01-01T00:00:00+00:00", master_seed=11
        )
        payload["provenance"]["config"].update(jobs=2, shuffled_folds=False, price_source="auto")
        old = tmp_path / "old" / "report_cross_validated.json"
        old.parent.mkdir()
        old.write_text(json.dumps(payload, indent=2))
        assert main(["report", "--in", str(old)]) == 0
        for name in ("report_cross_validated.csv", "report_cross_validated_box.csv"):
            assert (old.parent / name).read_bytes() == (out / name).read_bytes()
        assert len((out / "report_cross_validated_box.csv").read_text().splitlines()) > 1

    def test_run_prints_the_elapsed_time_once(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(re.findall(r"^experiment ran in \d+\.\d\d s$", out, re.MULTILINE)) == 1

    def test_grid_beyond_physical_memory_is_a_data_error(self, tmp_path, capsys):
        # a 1 ms grid over ten millennia needs petabytes, so nothing is allocated
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(
            "stock_id,timestamp,bid,ask,volume,avg_price\n"
            + "".join(
                f"{s},{t},1.0,1.1,10,1.05\n"
                for s in ("AAA", "BBB")
                for t in ("0001-01-01T00:00:00.000Z", "9999-12-31T23:59:59.999Z")
            )
        )
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[data]\nsource = ticks\ntick_csv = {ticks}\ngrid_step_seconds = 0.001\n"
            "[experiment]\nstep_size = 4\n"
        )
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "a 0.001 s grid from 0001-01-01T00:00:00.000Z to 9999-12-31T23:59:59.999Z" in err
        assert "has 315537897600000 instants" in err

    def test_report_out_path_that_is_a_file_rejected(self, tmp_path):
        report_json = tmp_path / "report.json"
        report_json.write_text(run_cross_validated(_config()).to_json())
        assert main(["report", "--in", str(report_json), "--out", str(report_json)]) == 1

    def test_non_ascii_stock_id_under_an_ascii_locale(self, tmp_path):
        """Files are written and read back as UTF-8 whatever the locale says."""
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        src = str(Path(harness.__file__).parents[1])
        env.update(
            PYTHONCOERCECLOCALE="0", LC_ALL="C",
            PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
        )

        def ascii_python(*args):
            done = subprocess.run(
                [sys.executable, "-X", "utf8=0", *args],
                env=env, cwd=tmp_path, capture_output=True, text=True, errors="replace",
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        locale_codec = "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding()).name)"
        assert ascii_python("-c", locale_codec).strip() == "ascii"
        ascii_python("-c", NON_ASCII_PANEL, "panel.csv", "ticks.csv")
        (tmp_path / "exp.ini").write_text(
            CONFIG_TEMPLATE.replace("source = synthetic", "source = matrix\nmatrix_csv = panel.csv")
            .format(out="results") + "# the panel's first stock is \u00c41\n",
            encoding="utf-8",
        )
        ascii_python("-m", "trendlag.cli", "run", "--config", "exp.ini")
        report_json = tmp_path / "results" / "report_cross_validated.json"
        ascii_python("-m", "trendlag.cli", "report", "--in", str(report_json), "--out", "rebuilt")
        for name in ("report_cross_validated.csv", "report_cross_validated_box.csv"):
            written = (tmp_path / "results" / name).read_bytes()
            assert (tmp_path / "rebuilt" / name).read_bytes() == written
        rows = (tmp_path / "results" / "report_cross_validated.csv").read_text(encoding="utf-8")
        assert rows.splitlines()[1].startswith("\u00c41,model,")
        assert json.loads(report_json.read_text(encoding="utf-8"))["stocks"][0]["stock_id"] == "\u00c41"

    def test_runs_with_scipy_blocked(self, tmp_path):
        """The package imports and runs a cross-validated experiment without scipy."""
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "results"))
        src = str(Path(harness.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys; sys.modules['scipy'] = None; from trendlag import cli; "
            "raise SystemExit(cli.main(['run', '--config', sys.argv[1]]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads((tmp_path / "results" / "report_cross_validated.json").read_text())
        assert payload["welch_tests"]  # the t tail and quantile ran

    def test_report_subcommand_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        assert main(["report", "--in", str(bad)]) == 2
        bad.write_bytes(b'{"mode": "\xff"}')
        assert main(["report", "--in", str(bad)]) == 2  # not UTF-8
        assert main(["report", "--in", str(tmp_path)]) == 2  # a directory
        partial = run_cross_validated(_config()).to_dict()
        del partial["stocks"][0]["model_accuracy"]
        bad.write_text(json.dumps(partial))
        assert main(["report", "--in", str(bad)]) == 2  # a stock entry lacks a field
