"""Per-call cost of the network's public kernels on one mini-batch.

``neural.backward`` runs its own forward pass, so its time includes one.
"""

from __future__ import annotations

import statistics
import time

from trendlag import features, neural

from tracing import layer_macs, train_flops_per_row

SHAPES = {"small": (32, 32), "wide": (400, 400, 400, 400, 400)}
BATCH = 100


def _us_per_call(fn, calls: int, blocks: int = 5) -> float:
    """Median over ``blocks`` of the mean time of ``calls`` back-to-back calls."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def probe(matrix, step_size: int) -> dict[str, tuple[float, str]]:
    """Time forward, backward and sgd_step on the workload's own data.

    The batch is the first ``BATCH`` rows of the first stock's
    leave-target-out dataset, min/max-normalized as the harness does.
    """
    gradients = features.build_gradients(matrix, step_size)
    x, y = features.dataset_arrays(gradients, gradients.stock_ids[0])
    x, y = x[:BATCH], y[:BATCH]
    x = features.apply_normalizer(features.fit_normalizer(x), x)
    out: dict[str, tuple[float, str]] = {}
    for label, hidden in SHAPES.items():
        config = neural.NetworkConfig(input_dim=x.shape[1], hidden_layers=hidden)
        model = neural.init(config)
        grads = neural.backward(model, x, y)
        calls = 200 if label == "small" else 10
        sizes = config.layer_sizes()
        out[f"neural.probe.{label}.forward_us"] = (
            _us_per_call(lambda: neural.forward(model, x), calls), "us"
        )
        out[f"neural.probe.{label}.backward_us"] = (
            _us_per_call(lambda: neural.backward(model, x, y), calls), "us"
        )
        out[f"neural.probe.{label}.sgd_step_us"] = (
            _us_per_call(lambda: neural.sgd_step(model, grads, 0), calls), "us"
        )
        out[f"neural.probe.{label}.forward_flops"] = (float(2 * layer_macs(sizes) * BATCH), "FLOP")
        out[f"neural.probe.{label}.backward_flops"] = (
            float(train_flops_per_row(sizes) * BATCH), "FLOP"
        )
    return out
