"""Experiment orchestration: leave-target-out datasets, CV, crisis, sweeps.

For every stock in the panel a separate model is trained to predict that
stock's gradient direction change from all other stocks' preceding-interval
gradients.  ``run`` is the one engine for every mode.  It builds the
gradients once and takes from a plan the (name, train, validation, test)
index splits every stock shares, their hash, and whether they are too small
for any stock:

* ``_fold_plan``: ``n_folds`` contiguous folds; within each fold's training
  portion the most recent quarter is split off for early stopping, so the
  default five folds give 60-20-20 train/validation/test per fold (four give
  about 56-19-25).  ``cross_validated`` runs it with the configured net,
  ``bottleneck_sweep`` with one net per bottleneck width plus one without.
* ``_crisis_plan``: one chronological split for ``crisis``; everything before
  the boundary trains (validation = most recent quarter of it), the bounded
  window is the test set.  No cross-validation.

Every (network, stock) task runs in one worker pool: one net per split, the
stock scored on the union of the test sets.  ``run`` returns one report per
network; ``run_cross_validated``, ``run_crisis`` and ``run_bottleneck_sweep``
call it with their mode set.

Reports carry per-stock model and baseline accuracies, Welch tests and
minimum differences against each baseline, box-whisker summaries, and full
provenance; they serialize to JSON and flatten to CSV.
"""

from __future__ import annotations

import configparser
import csv
import ctypes
import hashlib
import json
import logging
import math
import multiprocessing
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, features, neural, stats, synth
from .errors import ConfigError, DataError
from .market_data import (
    PriceMatrix,
    TickTable,
    TimeGrid,
    fill_missing,
    format_timestamp,
    parse_ticks,
    parse_timestamp,
    select_consistent_stocks,
)

logger = logging.getLogger(__name__)

MODES = ("cross_validated", "crisis", "bottleneck_sweep")
ALL_SERIES = baselines.SERIES
BASELINE_SERIES = ALL_SERIES[1:]


def derive_seed(*parts: Any) -> int:
    """Stable (process-independent) seed from arbitrary labelled parts."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _repeated(items: Sequence[Any]) -> list[Any]:
    """The items that occur more than once, in order of first occurrence."""
    return [item for item, count in Counter(items).items() if count > 1]


@dataclass
class ExperimentConfig:
    """One experiment run: data source, pipeline, network, and mode settings."""

    mode: str = "cross_validated"
    tick_csv: str | None = None
    matrix_csv: str | None = None
    step_size: int = 16
    grid_step_seconds: float = 60.0
    min_observed_fraction: float = 0.9
    stock_filter: tuple[str, ...] | None = None
    network: dict[str, Any] = field(default_factory=dict)
    bottleneck_widths: tuple[int, ...] = (1, 3, 5, 10)
    crisis_start: np.datetime64 | None = None
    crisis_end: np.datetime64 | None = None
    n_folds: int = 5
    jobs: int = 1
    out_dir: str = "results"
    seed: int = 0
    synthetic: synth.SyntheticConfig | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        sources = [s is not None for s in (self.tick_csv, self.matrix_csv, self.synthetic)]
        if sum(sources) != 1:
            raise ConfigError("exactly one data source (ticks, matrix, synthetic) is required")
        if self.step_size < 2:
            raise ConfigError("step_size must be >= 2")
        if round(self.grid_step_seconds * 1000) < 1:  # the grid step in whole ms, as _infer_grid
            raise ConfigError(
                f"grid_step_seconds must round to at least 1 ms, got {self.grid_step_seconds}"
            )
        if not 0.0 < self.min_observed_fraction <= 1.0:
            raise ConfigError("min_observed_fraction must lie in (0, 1]")
        if self.n_folds < 2:
            raise ConfigError("n_folds must be >= 2")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.mode == "bottleneck_sweep" and not self.bottleneck_widths:
            raise ConfigError("bottleneck_sweep needs a non-empty width list")
        if self.mode == "bottleneck_sweep" and (repeated := _repeated(self.bottleneck_widths)):
            raise ConfigError(f"bottleneck_widths repeat {', '.join(map(str, repeated))}")
        if self.stock_filter and (repeated := _repeated(self.stock_filter)):
            raise ConfigError(f"stock_filter repeats {', '.join(repeated)}")
        bad = set(self.network) - set(neural.NetworkConfig.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown network setting(s): {', '.join(sorted(bad))}")
        if "input_dim" in self.network or "rng_seed" in self.network:
            raise ConfigError("input_dim and rng_seed are derived, not configurable")
        neural.NetworkConfig(input_dim=1, **self.network).validate()
        if (self.crisis_start is None) != (self.crisis_end is None):
            missing = "crisis_start" if self.crisis_start is None else "crisis_end"
            raise ConfigError(f"crisis_start and crisis_end are set together; {missing} is missing")
        window = self.crisis_start is not None and self.crisis_end is not None
        if window and self.crisis_end < self.crisis_start:
            raise ConfigError("crisis_end precedes crisis_start")
        if self.mode == "crisis" and not window and not (
            self.synthetic is not None and self.synthetic.regime_switch is not None
        ):
            raise ConfigError("crisis mode requires crisis_start and crisis_end")

    def resolved_crisis_window(self) -> tuple[np.datetime64, np.datetime64]:
        if self.crisis_start is not None and self.crisis_end is not None:
            return self.crisis_start, self.crisis_end
        assert self.synthetic is not None and self.synthetic.regime_switch is not None
        return synth.crisis_window(self.synthetic)

    def network_config(self, input_dim: int, rng_seed: int) -> neural.NetworkConfig:
        return neural.NetworkConfig(input_dim=input_dim, rng_seed=rng_seed, **self.network)


def load_price_matrix(config: ExperimentConfig, matrix: PriceMatrix | None = None) -> PriceMatrix:
    """The panel an experiment runs on: ``matrix``, or else the configured source.

    Either one goes through ``stock_filter`` and ``select_consistent_stocks``.
    """
    if matrix is None:
        if config.tick_csv is not None:
            table = parse_ticks(config.tick_csv)
            if not table.columns:
                raise DataError(f"{config.tick_csv}: no parseable tick rows")
            grid = _infer_grid(table, config.grid_step_seconds)
            matrix = fill_missing(table, grid)
        elif config.matrix_csv is not None:
            matrix = PriceMatrix.from_csv(config.matrix_csv)
        else:
            assert config.synthetic is not None
            matrix = synth.generate(config.synthetic)
    if config.stock_filter:
        matrix = matrix.restrict(config.stock_filter)
    return select_consistent_stocks(
        matrix, config.min_observed_fraction, config.step_size
    )


def _infer_grid(table: TickTable, step_seconds: float) -> TimeGrid:
    first = min(c.timestamp[0] for c in table.columns.values())
    last = max(c.timestamp[-1] for c in table.columns.values())
    step = np.timedelta64(int(round(step_seconds * 1000)), "ms")
    count = int((last - first) // step) + 1
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if count * len(table.columns) * 8 > memory:
        raise DataError(
            f"a {step_seconds} s grid from {format_timestamp(first)} to {format_timestamp(last)} "
            f"has {count} instants; their {len(table.columns)} price columns would exceed "
            f"the {memory} B of physical memory"
        )
    return TimeGrid.regular(first, step, count)


@dataclass(frozen=True)
class StockResult:
    """Accuracies for one target stock (or the reason it was skipped)."""

    stock_id: str
    n_examples: int
    model_accuracy: float | None = None
    fold_accuracies: tuple[float, ...] = ()
    randomized_accuracy: float | None = None
    class1_accuracy: float | None = None
    class2_accuracy: float | None = None
    bestof_accuracy: float | None = None
    skipped: bool = False
    skip_reason: str = ""

    def accuracy_for(self, series: str) -> float | None:
        return getattr(self, f"{series}_accuracy")


@dataclass
class ExperimentReport:
    """Everything one experiment produced, in JSON-serializable form."""

    mode: str
    step_size: int
    bottleneck: int | None
    stocks: tuple[StockResult, ...]
    mean_accuracies: dict[str, float]
    max_model_accuracy: float | None
    welch_tests: dict[str, stats.WelchResult | None]
    box_summaries: dict[str, stats.BoxStats | None]
    fold_hash: str
    provenance: dict[str, Any]

    def evaluated_stocks(self) -> tuple[StockResult, ...]:
        return tuple(r for r in self.stocks if not r.skipped)

    def to_dict(self) -> dict[str, Any]:
        return _plain(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentReport":
        return _typed(cls, data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _fold_hash(folds: Sequence[np.ndarray], extra: str = "") -> str:
    h = hashlib.sha256()
    for f in folds:
        h.update(f.astype(np.int64).tobytes())
        h.update(b"|")
    h.update(extra.encode("utf-8"))
    return h.hexdigest()[:16]


def _train_and_predict(
    config: ExperimentConfig,
    x: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    test_idx: np.ndarray,
    rng_seed: int,
    stock_id: str,
    split: str,
    model: neural.NetworkModel | None,
) -> tuple[np.ndarray, neural.NetworkModel]:
    """Fit normalizer on the training split only, train, predict the test split.

    The net is drawn into ``model``'s memory when one is given; the model is
    returned with the predictions, for the stock's next split.
    """
    params = features.fit_normalizer(x[train_idx])
    xn = features.apply_normalizer(params, x)
    net_config = config.network_config(input_dim=x.shape[1], rng_seed=rng_seed)
    model = neural.init(net_config, model)
    fit = neural.train(model, (xn[train_idx], y[train_idx]), (xn[val_idx], y[val_idx]))
    if fit.diverged:
        logger.warning(
            "training diverged for %s, %s: non-finite loss after %d full epochs; "
            "predicting with the best finite weights",
            stock_id, split, fit.epochs_run,
        )
    return neural.predict_class(model, xn[test_idx]), model


def _split_train_pool(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carve the validation quarter off the end of the (ordered) training pool."""
    n_val = pool.size // 4
    return pool[: pool.size - n_val], pool[pool.size - n_val :]


# (name, train, validation, test) example indices, shared by every stock.
# The name seeds the split's net and labels it in log lines.
Split = tuple[tuple[Any, ...], np.ndarray, np.ndarray, np.ndarray]


def _skip_reason(
    config: ExperimentConfig, splits: Sequence[Split], no_split: str, training: str
) -> str:
    """Why no stock can run these splits, or "" when every stock can."""
    batch = int(config.network.get("batch_size", neural.NetworkConfig.batch_size))
    for _, train_idx, val_idx, test_idx in splits:
        if test_idx.size == 0 or val_idx.size == 0:
            return no_split
        if train_idx.size < batch:
            return f"{training} size {train_idx.size} below batch size {batch}"
    return ""


def _run_stock(
    config: ExperimentConfig,
    gradients: features.GradientMatrix,
    splits: Sequence[Split],
    stock_id: str,
    stock_seed: int,
) -> StockResult:
    """Train one net per split and score the stock on the union of the test sets.

    Every split's net is drawn into the first split's model.
    """
    x, y = features.dataset_arrays(gradients, stock_id)
    truth = features.truth_labels(y)
    predicted = np.full(truth.size, -1, dtype=np.int64)
    split_accuracies = []
    model = None
    for name, train_idx, val_idx, test_idx in splits:
        pred, model = _train_and_predict(
            config, x, y, train_idx, val_idx, test_idx,
            derive_seed(stock_seed, *name), stock_id, " ".join(map(str, name)), model,
        )
        predicted[test_idx] = pred
        split_accuracies.append(baselines.accuracy(pred, truth[test_idx]))
    scored = np.sort(np.concatenate([test_idx for *_, test_idx in splits]))
    predicted, truth = predicted[scored], truth[scored]
    randomized = baselines.randomized_baseline(predicted, derive_seed(stock_seed, "shuffle"))
    class1 = baselines.class_baseline(truth, 1)
    class2 = baselines.class_baseline(truth, 2)
    return StockResult(
        stock_id=stock_id,
        n_examples=int(scored.size),
        model_accuracy=float(np.mean(split_accuracies)),
        fold_accuracies=tuple(split_accuracies),
        randomized_accuracy=baselines.accuracy(randomized, truth),
        class1_accuracy=baselines.accuracy(class1, truth),
        class2_accuracy=baselines.accuracy(class2, truth),
        bestof_accuracy=baselines.bestof_accuracy(truth, randomized, class1, class2),
    )


def _skipped(stock_id: str, n_examples: int, reason: str) -> StockResult:
    logger.info("skipping %s: %s", stock_id, reason)
    return StockResult(stock_id, n_examples, skipped=True, skip_reason=reason)


# Thread-count setters of the OpenBLAS builds numpy wheels ship, newest first.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """Each OpenBLAS mapped into this process, with the name of its thread setter."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _OPENBLAS_SETTERS if hasattr(lib, n)), None)
        if name is not None:
            found.append((lib, name))
    return found


def _pin_one_blas_thread() -> None:
    """Limit every loaded OpenBLAS to one thread; without one, leave things be."""
    for lib, name in _loaded_openblas():
        setter = getattr(lib, name)
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system, where glibc can.

    A forked worker shares every page this process holds.  Memory the
    experiment has freed, such as the cleansed price matrix, can stay in the
    heap below a later allocation; each worker would carry it.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


# The worker function of the pool this worker process belongs to.
_TASK: Callable[[Any], StockResult] | None = None


def _start_worker(task: Callable[[Any], StockResult]) -> None:
    global _TASK
    _TASK = task
    _pin_one_blas_thread()


def _run_task(task: Any) -> StockResult:
    return _TASK(task)


def _run_per_stock(
    config: ExperimentConfig, worker: Callable[[Any], StockResult], tasks: Sequence[Any]
) -> list[StockResult]:
    """Run each (network index, stock id) task, in forked workers when jobs > 1.

    Order is preserved.  Each task owns its seed-derived generators, so the
    degree of parallelism cannot perturb results.  The pool forks, so the
    worker closure and the data it holds reach the children without
    pickling or a second numpy import; only tasks go out and only
    StockResults come back.  Each child runs one BLAS thread, which keeps
    jobs x BLAS threads within the cores when jobs is at most the core count,
    and inherits no heap pages this process has freed.
    """
    n_workers = min(config.jobs, len(tasks))
    if n_workers <= 1:
        return [worker(t) for t in tasks]
    _release_free_heap()
    context = multiprocessing.get_context("fork")
    with context.Pool(n_workers, initializer=_start_worker, initargs=(worker,)) as pool:
        results = pool.map(_run_task, tasks, chunksize=1)
        pool.close()
        pool.join()
    return results


def _plain(value: Any) -> Any:
    """Dataclass, tuple, array or timestamp -> the JSON-ready value."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.datetime64):
        return format_timestamp(value)
    return value


def _typed(hint: Any, value: Any) -> Any:
    """Inverse of _plain: rebuild the value ``hint`` annotates from JSON data."""
    if value is None:
        return None
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        (hint,) = [a for a in args if a is not type(None)]
        return _typed(hint, value)
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        if missing := [f.name for f in fields(hint) if f.name not in value]:
            # a default would hide a partial entry; the JSON always has every field
            raise TypeError(f"{hint.__name__} lacks {', '.join(missing)}")
        return hint(**{k: _typed(hints[k], v) for k, v in value.items()})
    if origin is tuple:
        return tuple(_typed(args[0], v) for v in value)
    if origin is dict:
        return {k: _typed(args[1], v) for k, v in value.items()}
    return value


def _provenance(config: ExperimentConfig, stock_seeds: dict[str, int]) -> dict[str, Any]:
    """What determines the report besides its data: config, seeds, library version."""
    from . import __version__

    # where the report goes and how many workers ran it do not change it
    snapshot = {k: v for k, v in _plain(config).items() if k not in ("out_dir", "jobs")}
    return {"config": snapshot, "stock_seeds": stock_seeds, "library_version": __version__}


def _welch_or_none(model: np.ndarray, baseline: np.ndarray) -> stats.WelchResult | None:
    """Welch test of model > baseline; None where it is undefined (n < 2, no spread)."""
    try:
        return stats.welch_upper_tail(model, baseline, stats.DEFAULT_ALPHA)
    except ValueError:
        return None


def _assemble_report(
    config: ExperimentConfig,
    results: list[StockResult],
    fold_hash: str,
    stock_seeds: dict[str, int],
) -> ExperimentReport:
    evaluated = [r for r in results if not r.skipped]
    samples = {s: np.array([r.accuracy_for(s) for r in evaluated]) for s in ALL_SERIES}
    return ExperimentReport(
        mode=config.mode,
        step_size=config.step_size,
        bottleneck=config.network.get("bottleneck"),
        stocks=tuple(results),
        mean_accuracies={s: float(v.mean()) for s, v in samples.items() if v.size},
        max_model_accuracy=max((r.model_accuracy for r in evaluated), default=None),
        welch_tests={s: _welch_or_none(samples["model"], samples[s]) for s in BASELINE_SERIES},
        box_summaries={
            s: stats.box_stats(v) if v.size >= 5 else None for s, v in samples.items()
        },
        fold_hash=fold_hash,
        provenance=_provenance(config, stock_seeds),
    )


def _fold_plan(
    config: ExperimentConfig, gradients: features.GradientMatrix
) -> tuple[list[Split], str, str]:
    """Contiguous CV folds: the splits, their hash, and why no stock can run them."""
    n_examples = gradients.n_intervals - 1
    folds = np.array_split(np.arange(n_examples), config.n_folds)
    splits = [
        (("fold", f), *_split_train_pool(np.concatenate(folds[:f] + folds[f + 1 :])), test_idx)
        for f, test_idx in enumerate(folds)
    ]
    no_split = f"{n_examples} examples are too few for {config.n_folds} folds with validation"
    skip_reason = _skip_reason(config, splits, no_split, "fold training")
    return splits, _fold_hash(folds, extra=f"n={n_examples}"), skip_reason


def _crisis_plan(
    config: ExperimentConfig, gradients: features.GradientMatrix
) -> tuple[list[Split], str, str]:
    """The chronological split: train before the crisis window, test inside it."""
    boundary_start, boundary_end = config.resolved_crisis_window()
    # example i predicts interval i+1; it belongs to that interval's end time
    example_times = gradients.interval_timestamps[1:]
    train_idx = np.flatnonzero(example_times < boundary_start)
    test_idx = np.flatnonzero(
        (example_times >= boundary_start) & (example_times <= boundary_end)
    )
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError(
            f"crisis split [{format_timestamp(boundary_start)}, "
            f"{format_timestamp(boundary_end)}] leaves an empty side "
            f"(train={train_idx.size}, test={test_idx.size})"
        )
    fit_idx, val_idx = _split_train_pool(train_idx)
    splits = [(("crisis",), fit_idx, val_idx, test_idx)]
    skip_reason = _skip_reason(
        config, splits, "training side too small for a validation split", "training"
    )
    return splits, _fold_hash([fit_idx, val_idx, test_idx], extra="crisis"), skip_reason


def run(config: ExperimentConfig, matrix: PriceMatrix | None = None) -> list[ExperimentReport]:
    """The experiment ``config.mode`` names, on ``matrix`` or the configured source.

    Either one is cleansed by ``load_price_matrix``.  Returns one report per
    network: the configured net, or in a sweep each bottleneck width plus
    the unconstrained net.  The networks share the gradients, splits,
    per-stock seeds and worker pool, so their reports are directly
    comparable; all their stock tasks run, or all skip.
    """
    networks = [config.network]
    if config.mode == "bottleneck_sweep":
        networks = [{**config.network, "bottleneck": w} for w in (*config.bottleneck_widths, None)]
    configs = [replace(config, network=network) for network in networks]
    for c in configs:
        c.validate()
    matrix = load_price_matrix(config, matrix)
    if matrix.n_stocks < 2:
        raise DataError(
            f"{matrix.n_stocks} stock(s) left after stock_filter and select_consistent_stocks; "
            "leave-target-out needs at least 2"
        )
    gradients = features.build_gradients(matrix, config.step_size)
    if gradients.n_intervals < 2:
        raise DataError("need at least 2 gradient intervals to build labels")
    plan = _crisis_plan if config.mode == "crisis" else _fold_plan
    splits, fold_hash, skip_reason = plan(config, gradients)
    stock_seeds = {s: derive_seed(config.seed, s) for s in gradients.stock_ids}
    tasks = [(i, s) for s in gradients.stock_ids for i in range(len(configs))]
    if skip_reason:
        results = [_skipped(s, gradients.n_intervals - 1, skip_reason) for _, s in tasks]
    else:
        results = _run_per_stock(
            config,
            lambda t: _run_stock(configs[t[0]], gradients, splits, t[1], stock_seeds[t[1]]),
            tasks,
        )
    per_network = [results[i :: len(configs)] for i in range(len(configs))]
    return [_assemble_report(c, r, fold_hash, stock_seeds) for c, r in zip(configs, per_network)]


def run_cross_validated(
    config: ExperimentConfig, matrix: PriceMatrix | None = None
) -> ExperimentReport:
    """Five-fold leave-target-out experiment over every stock in the panel."""
    return run(replace(config, mode="cross_validated"), matrix)[0]


def run_crisis(config: ExperimentConfig, matrix: PriceMatrix | None = None) -> ExperimentReport:
    """Chronological split: train before the boundary, test inside it."""
    return run(replace(config, mode="crisis"), matrix)[0]


def run_bottleneck_sweep(
    config: ExperimentConfig, matrix: PriceMatrix | None = None
) -> list[ExperimentReport]:
    """Cross-validated runs at each bottleneck width plus the unconstrained net."""
    return run(replace(config, mode="bottleneck_sweep"), matrix)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _stem(report: ExperimentReport) -> str:
    if report.mode == "bottleneck_sweep":
        width = "none" if report.bottleneck is None else str(report.bottleneck)
        return f"report_bottleneck_{width}"
    return f"report_{report.mode}"


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: Sequence[str] = ("json", "csv"),
    stem: str | None = None,
) -> list[Path]:
    """Write the report as JSON and/or flat CSVs; returns the files written.

    The CSV flattening produces one row per stock and series; a companion
    ``*_box.csv`` carries the box-whisker numbers per series for external
    plotting.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = stem or _stem(report)
    written: list[Path] = []
    for fmt in formats:
        if fmt == "json":
            path = out / f"{stem}.json"
            path.write_text(report.to_json(), encoding="utf-8")
            written.append(path)
        elif fmt == "csv":
            path = out / f"{stem}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(
                    ["stock_id", "series", "accuracy", "n_examples", "skipped", "skip_reason"]
                )
                writer.writerows(
                    [r.stock_id, s, r.accuracy_for(s), r.n_examples, r.skipped, r.skip_reason]
                    for r in report.stocks
                    for s in ALL_SERIES
                )
            written.append(path)
            box_path = out / f"{stem}_box.csv"
            box_fields = [f.name for f in fields(stats.BoxStats)]
            with open(box_path, "w", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["series", *box_fields])
                for series in ALL_SERIES:
                    if (b := report.box_summaries.get(series)) is not None:
                        *numbers, outliers = (getattr(b, name) for name in box_fields)
                        writer.writerow([series, *numbers, ";".join(map(repr, outliers))])
            written.append(box_path)
        else:
            raise ConfigError(f"unknown report format {fmt!r}")
    return written


# ---------------------------------------------------------------------------
# Config file parsing (flat key-value INI with data/network/experiment/
# synthetic sections)
# ---------------------------------------------------------------------------

# INI keys are dataclass field names; only these irregularities are listed.
_DATA_FIELDS = {
    "tick_csv", "matrix_csv", "grid_step_seconds", "min_observed_fraction", "stock_filter",
}
_RENAMED = {"out_dir": "out", "switch_step": "regime_switch_step"}
_DERIVED = {"synthetic", "network", "input_dim", "rng_seed", "coupling_matrix", "regime_switch"}
# keys no dataclass field holds, with their types
_EXTRA_KEYS = {"data": {"source": str}, "synthetic": {"coupling_seed": int}}

MODE_ALIASES = {"cross": "cross_validated", "crisis": "crisis", "bottleneck": "bottleneck_sweep"}


def _section_fields() -> dict[str, dict[str, tuple[type | None, str, Any]]]:
    """Per section, INI key -> (dataclass or None for an extra key, field, type hint)."""
    tables: dict[str, dict[str, tuple[type | None, str, Any]]] = {
        "data": {}, "synthetic": {}, "network": {}, "experiment": {},
    }
    for cls, section in (
        (ExperimentConfig, "experiment"),
        (neural.NetworkConfig, "network"),
        (synth.SyntheticConfig, "synthetic"),
        (synth.RegimeSwitch, "synthetic"),
    ):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in _DERIVED:
                home = "data" if f.name in _DATA_FIELDS else section
                tables[home][_RENAMED.get(f.name, f.name)] = (cls, f.name, hints[f.name])
    for section, keys in _EXTRA_KEYS.items():
        tables[section].update((key, (None, key, hint)) for key, hint in keys.items())
    return tables


def _cast(hint: Any, text: str) -> Any:
    """INI text -> a value of the annotated type."""
    text = text.strip()
    if get_origin(hint) in (Union, UnionType):
        if text.lower() in ("", "none"):
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is tuple:
        return tuple(_cast(get_args(hint)[0], p) for p in text.split(",") if p.strip())
    if hint is float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {text!r}")
        return value
    if hint is np.datetime64:
        return parse_timestamp(text)
    return hint(text)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse the flat key-value experiment config file.

    ``[data] source = ticks`` or ``matrix`` makes that file the run's data; a
    ``[synthetic]`` section beside it only feeds ``load_synthetic_config``.
    """
    return _load_config(path)[0]


def load_synthetic_config(path: str | Path) -> synth.SyntheticConfig:
    """The ``[synthetic]`` section of a valid config file, whatever its source."""
    synthetic = _load_config(path)[1]
    if synthetic is None:
        raise ConfigError(f"{path} has no [synthetic] section")
    return synthetic


def _load_config(path: str | Path) -> tuple[ExperimentConfig, synth.SyntheticConfig | None]:
    """The validated run config and the ``[synthetic]`` section's generator config."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    tables = _section_fields()
    unknown = set(parser.sections()) - set(tables)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    try:
        # dataclass -> its fields; None -> the extra keys
        values: defaultdict[type | None, dict[str, Any]] = defaultdict(dict)
        for name, table in tables.items():
            sec = parser[name] if parser.has_section(name) else {}
            unknown = set(sec.keys()) - set(table)
            if unknown:
                raise ConfigError(f"[{name}] has unknown key(s): {', '.join(sorted(unknown))}")
            for key, (cls, f, hint) in table.items():
                if key in sec:
                    try:
                        values[cls][f] = _cast(hint, sec[key])
                    except (ValueError, ConfigError) as exc:
                        raise ConfigError(f"{path}: [{name}] {key}: {exc}") from exc

        source = values[None].get("source", "").lower()
        if source and source not in ("ticks", "matrix", "synthetic"):
            raise ConfigError(f"[data] source must be ticks, matrix, or synthetic, got {source!r}")
        if source == "synthetic" and not parser.has_section("synthetic"):
            raise ConfigError("source=synthetic requires a [synthetic] section")
        if source == "ticks" and values[ExperimentConfig].get("tick_csv") is None:
            raise ConfigError("source=ticks requires tick_csv")
        if source == "matrix" and values[ExperimentConfig].get("matrix_csv") is None:
            raise ConfigError("source=matrix requires matrix_csv")

        config = ExperimentConfig(**values[ExperimentConfig], network=values[neural.NetworkConfig])
        mode = config.mode.lower()
        config.mode = MODE_ALIASES.get(mode, mode)
        syn = None
        if parser.has_section("synthetic"):
            syn = synth.SyntheticConfig(**values[synth.SyntheticConfig])
            if (coupling_seed := values[None].get("coupling_seed")) is not None:
                syn.coupling_matrix = synth.random_coupling(syn.n_stocks, coupling_seed)
            if "switch_step" in values[synth.RegimeSwitch]:
                syn.regime_switch = synth.RegimeSwitch(**values[synth.RegimeSwitch])
            elif values[synth.RegimeSwitch]:
                raise ConfigError("crisis_* settings require regime_switch_step")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if source not in ("ticks", "matrix"):
        config.synthetic = syn
    config.validate()
    return config, syn
