"""Spans around trendlag's public functions, recorded from outside the package.

A ``Tracer`` replaces functions where their callers look them up (module
attributes, or the names a module imported) with wrappers that record one
span per call: name, start, end, parent span and the target stock being
processed.  Spans stay in memory until the run ends.  ``layer_metrics``
turns them into the per-module numbers the benchmark reports.

Only single-threaded runs are traced (``jobs = 1``), so one span stack is
enough.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from trendlag import baselines, cli, features, harness, neural, stats, synth

# (module object, attribute, span name).  harness and cli import these
# names directly, so they are patched in the importing module.
WRAPPED: tuple[tuple[Any, str, str], ...] = (
    (harness, "parse_ticks", "market_data.parse_ticks"),
    (harness, "fill_missing", "market_data.fill_missing"),
    (harness, "select_consistent_stocks", "market_data.select_consistent_stocks"),
    (harness, "run", "harness.run"),
    (harness, "run_cross_validated", "harness.run_cross_validated"),
    (harness, "run_crisis", "harness.run_crisis"),
    (harness, "run_bottleneck_sweep", "harness.run_bottleneck_sweep"),
    (harness, "emit_report", "harness.emit_report"),
    (cli, "run", "harness.run"),
    (cli, "emit_report", "harness.emit_report"),
    (cli, "main", "cli.main"),
    (features, "build_gradients", "features.build_gradients"),
    (features, "dataset_arrays", "features.dataset_arrays"),
    (features, "fit_normalizer", "features.fit_normalizer"),
    (features, "apply_normalizer", "features.apply_normalizer"),
    (neural, "init", "neural.init"),
    (neural, "train", "neural.train"),
    (neural, "predict_class", "neural.predict_class"),
    (baselines, "accuracy", "baselines.accuracy"),
    (baselines, "randomized_baseline", "baselines.randomized_baseline"),
    (baselines, "class_baseline", "baselines.class_baseline"),
    (baselines, "bestof_accuracy", "baselines.bestof_accuracy"),
    (stats, "welch_upper_tail", "stats.welch_upper_tail"),
    (stats, "box_stats", "stats.box_stats"),
    (synth, "generate", "synth.generate"),
    (synth, "write_tick_csv", "synth.write_tick_csv"),
)

# Spans that open a new experiment: per-stock work is grouped under them.
RUN_SPANS = frozenset(
    ("harness.run", "harness.run_cross_validated", "harness.run_crisis")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    stock: str | None
    info: dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._stock: str | None = None
        self._run_count = 0
        self._saved: list[tuple[Any, str, Callable]] = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        if name in RUN_SPANS:
            self._run_count += 1
            self._stock = None
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._stock, {}))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()
        if self.spans[index].name in RUN_SPANS:
            self._stock = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "features.dataset_arrays":
                # a stock's task starts with its leave-target-out dataset
                self._stock = f"{self._run_count}:{args[1] if len(args) > 1 else kwargs['target_stock']}"
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].info.update(_span_info(name, args, result))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        self.index = self.tracer._open(self.name)
        return self.tracer.spans[self.index]

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


def _span_info(name: str, args: tuple, result: Any) -> dict[str, float]:
    """Counts read off a call's arguments and result at the span boundary."""
    if name == "market_data.parse_ticks":
        return {"rows": result.n_records + result.skipped, "skipped": result.skipped}
    if name == "market_data.fill_missing":
        return {"filled": float(result.fill_mask.sum()), "cells": float(result.fill_mask.size)}
    if name == "harness.emit_report":
        return {"bytes": float(sum(Path(f).stat().st_size for f in result))}
    if name == "neural.train":
        model, (x_train, _), (x_val, _) = args[0], args[1], args[2]
        return _train_info(model.config, x_train.shape[0], x_val.shape[0], result)
    return {}


def _train_info(config: neural.NetworkConfig, n_train: int, n_val: int, report) -> dict[str, float]:
    epochs = report.epochs_run
    losses = np.asarray(report.validation_losses, dtype=np.float64)
    best_epoch = int(np.argmin(losses)) + 1 if losses.size else epochs
    per_epoch_batches = -(-n_train // config.batch_size)
    macs = layer_macs(config.layer_sizes())
    # forward + backward over the training rows, forward over validation
    flops = epochs * (train_flops_per_row(config.layer_sizes()) * n_train + 2 * macs * n_val)
    return {
        "epochs": epochs,
        "wasted_epochs": epochs - best_epoch,
        "minibatches": epochs * per_epoch_batches,
        "flops": float(flops),
        "flops_per_minibatch": float(train_flops_per_row(config.layer_sizes()) * config.batch_size),
    }


def layer_macs(sizes: tuple[int, ...]) -> int:
    """Multiply-accumulates of one forward pass of one row."""
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def train_flops_per_row(sizes: tuple[int, ...]) -> int:
    """Matmul FLOPs of one forward + backward pass of one row.

    Forward is 2 * macs; the weight gradients add 2 * macs; propagating
    the error adds 2 * macs for every layer but the first.
    """
    macs = layer_macs(sizes)
    return 6 * macs - 2 * sizes[0] * sizes[1]


def _self_times(spans: list[Span]) -> list[float]:
    self_time = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.duration
    return self_time


def _outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix``* that are not nested in a span of the same module."""
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        parent = s.parent
        nested = False
        while parent is not None:
            if spans[parent].module == s.module:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], n_setups: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced run, as {name: (value, unit)}."""
    self_time = _self_times(spans)

    def total(prefix: str) -> float:
        return sum(s.duration for s in _outermost(spans, prefix))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def info(name: str, key: str) -> float:
        return sum(s.info.get(key, 0.0) for s in spans if s.name == name)

    parse_s = total("market_data.parse_ticks")
    parse_rows = info("market_data.parse_ticks", "rows")
    cells = info("market_data.fill_missing", "cells")
    train_s = total("neural.train")
    minibatches = info("neural.train", "minibatches")
    epochs = info("neural.train", "epochs")
    train_calls = calls("neural.train")
    harness_self = sum(
        self_time[i] for i, s in enumerate(spans)
        if s.module == "harness" and s.name != "harness.emit_report"
    )
    return {
        "market_data.parse_ticks.s": (parse_s, "s"),
        "market_data.parse_ticks.rows_per_s": (parse_rows / parse_s if parse_s else 0.0, "rows/s"),
        "market_data.parse_ticks.skipped": (info("market_data.parse_ticks", "skipped"), "count"),
        "market_data.fill_missing.s": (total("market_data.fill_missing"), "s"),
        "market_data.select_consistent_stocks.s": (total("market_data.select_consistent_stocks"), "s"),
        "market_data.fill_ratio": (info("market_data.fill_missing", "filled") / cells if cells else 0.0, "ratio"),
        "features.build_gradients.s": (total("features.build_gradients"), "s"),
        "features.build_gradients.calls": (calls("features.build_gradients"), "count"),
        "features.dataset_arrays.s": (total("features.dataset_arrays"), "s"),
        "features.dataset_arrays.calls": (calls("features.dataset_arrays"), "count"),
        "features.normalizer.s": (
            total("features.fit_normalizer") + total("features.apply_normalizer"), "s"
        ),
        "features.normalizer.calls": (
            calls("features.fit_normalizer") + calls("features.apply_normalizer"), "count"
        ),
        "neural.init.s": (total("neural.init"), "s"),
        "neural.train.s": (train_s, "s"),
        "neural.train.calls": (train_calls, "count"),
        "neural.train.epochs": (epochs, "count"),
        "neural.train.minibatches": (minibatches, "count"),
        "neural.train.us_per_minibatch": (1e6 * train_s / minibatches if minibatches else 0.0, "us"),
        "neural.train.wasted_epoch_ratio": (
            info("neural.train", "wasted_epochs") / epochs if epochs else 0.0, "ratio"
        ),
        "neural.predict_class.s": (total("neural.predict_class"), "s"),
        "neural.flops_per_minibatch": (
            info("neural.train", "flops_per_minibatch") / train_calls if train_calls else 0.0, "FLOP"
        ),
        "neural.gflops": (info("neural.train", "flops") / train_s / 1e9 if train_s else 0.0, "GFLOP/s"),
        "baselines.s": (total("baselines."), "s"),
        "stats.s": (total("stats."), "s"),
        "synth.generate.s": (total("synth.generate") / n_setups, "s"),
        "synth.write_tick_csv.s": (total("synth.write_tick_csv") / n_setups, "s"),
        "harness.self_s": (harness_self, "s"),
        "harness.emit_report.s": (total("harness.emit_report"), "s"),
        "harness.report_bytes": (info("harness.emit_report", "bytes"), "B"),
        "harness.stock_task.max_over_median": (_imbalance(spans), "ratio"),
        "cli.self_s": (sum(self_time[i] for i, s in enumerate(spans) if s.module == "cli"), "s"),
    }


def _imbalance(spans: list[Span]) -> float:
    """Slowest per-stock task over the median task (1.0 = perfectly even).

    A task runs from its stock's dataset to its last model or baseline
    call; the report statistics that follow belong to no stock.
    """
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for s in spans:
        if s.stock is None or s.module not in ("features", "neural", "baselines"):
            continue
        first[s.stock] = min(first.get(s.stock, s.start), s.start)
        last[s.stock] = max(last.get(s.stock, s.end), s.end)
    if not first:
        return 0.0
    tasks = np.array([last[k] - first[k] for k in first])
    return float(tasks.max() / np.median(tasks))
