"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Expensive criteria state their runtime budget and are
asserted against it.
"""

import math
import os
import time

import numpy as np
import pytest

import trendlag.neural as neural
from trendlag.features import fit_trend
from trendlag.harness import (
    ExperimentConfig,
    emit_report,
    run_bottleneck_sweep,
    run_cross_validated,
    run_crisis,
)
from trendlag.neural import NetworkConfig, backward, init, loss, sgd_step, train
from trendlag.stats import box_stats, welch_upper_tail
from trendlag.synth import RegimeSwitch, SyntheticConfig, crisis_window, oracle_accuracy


# The paper-claim criteria (4-8) run on the worker pool; reports do not
# depend on the jobs setting.
JOBS = min(2, os.cpu_count() or 1)


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"\n[criterion {number:>2}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


# -----------------------------------------------------------------------
# 1. analytic backpropagation vs central finite differences
# -----------------------------------------------------------------------

def _numeric_gradient(model, x, y, eps=1e-5):
    """Central differences, laid out like ``model.parameters``."""
    params = model.parameters
    numeric = np.zeros_like(params)
    for i in range(params.size):
        original = params[i]
        params[i] = original + eps
        up = loss(model, x, y)
        params[i] = original - eps
        down = loss(model, x, y)
        params[i] = original
        numeric[i] = (up - down) / (2 * eps)
    return numeric


def test_criterion_1_gradient_check_suite():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    n_nets = 100
    for i in range(n_nets):
        n_hidden = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(n_hidden))
        bottleneck = int(rng.integers(1, 4)) if i % 2 == 0 else None
        config = NetworkConfig(
            input_dim=int(rng.integers(2, 7)),
            hidden_layers=hidden,
            bottleneck=bottleneck,
            rng_seed=int(rng.integers(1_000_000)),
        )
        model = init(config)
        batch = int(rng.integers(1, 5))
        x = rng.normal(size=(batch, config.input_dim))
        y = np.eye(2)[rng.integers(0, 2, batch)]
        a = backward(model, x, y)
        n = _numeric_gradient(model, x, y)
        np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-9)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "gradient-check suite",
        elapsed < 60.0,
        f"{n_nets} nets (incl. bottlenecks), worst rel err {worst:.2e}, {elapsed:.1f}s < 60s",
    )


# -----------------------------------------------------------------------
# 2. optimizer reduces to the plain weight-decay update
# -----------------------------------------------------------------------

def test_criterion_2_plain_descent_equivalence():
    config = NetworkConfig(
        input_dim=3, hidden_layers=(4, 3), momentum=0.0, lr_decay=1.0,
        learning_rate=0.07, l2_lambda=0.003, rng_seed=77,
    )
    model = init(config)
    rng = np.random.default_rng(2002)
    # the same draws as one normal per weight matrix and bias vector in turn
    grad = rng.normal(size=model.parameters.size)
    eta, lam = config.learning_rate, config.l2_lambda
    nw = model.n_weights
    w, g = model.parameters[:nw], grad[:nw]
    # the plain update with the decay term grouped as eta*(grad + lambda*w);
    # the fully expanded w - eta*grad - eta*lambda*w is the same real number,
    # one floating-point associativity away
    expected = np.concatenate([w - eta * (g + lam * w), model.parameters[nw:] - eta * grad[nw:]])
    expanded_w = w - eta * g - eta * lam * w
    sgd_step(model, grad, epoch=0)
    bitwise = (model.parameters == expected).all()
    expanded_close = np.allclose(model.parameters[:nw], expanded_w, rtol=1e-14, atol=0)
    _verdict(2, "plain-descent equivalence", bitwise and expanded_close,
             "momentum 0 / decay 1 step bitwise equal to w - eta*(grad + lambda*w)")


# -----------------------------------------------------------------------
# 3. closed-form trend fit vs brute-force grid minimization
# -----------------------------------------------------------------------

def _grid_minimize_q(y, rounds=16, grid_n=81):
    """Coarse-to-fine grid search over (intercept, slope) of the residual sum."""
    y = np.asarray(y, dtype=np.float64)
    x = np.arange(y.size, dtype=np.float64)
    spread = float(y.max() - y.min()) + 1.0
    c0, half0 = float(y.mean()), spread + 1.0
    c1, half1 = 0.0, 2.0 * spread
    for _ in range(rounds):
        b0 = np.linspace(c0 - half0, c0 + half0, grid_n)
        b1 = np.linspace(c1 - half1, c1 + half1, grid_n)
        resid = y[None, None, :] - b0[:, None, None] - b1[None, :, None] * x[None, None, :]
        q = (resid**2).sum(axis=2)
        i, j = np.unravel_index(q.argmin(), q.shape)
        c0, c1 = float(b0[i]), float(b1[j])
        # shrink slowly: the refined window must keep the true minimizer
        # inside even for elongated (ill-conditioned) valleys
        half0 *= 0.3
        half1 *= 0.3
    return c0, c1


def test_criterion_3_least_squares_grid_oracle():
    exact = fit_trend([1, 2, 3, 4])
    assert exact.slope == pytest.approx(1.0, abs=1e-12)
    assert exact.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit_trend([5, 5, 5]).slope == 0.0
    known = fit_trend([1, 3, 2, 5])
    assert known.slope == pytest.approx(1.1, abs=1e-12)
    assert known.intercept == pytest.approx(1.1, abs=1e-12)

    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    worst_slope = worst_intercept = 0.0
    for _ in range(1000):
        length = int(rng.integers(2, 13))
        y = rng.uniform(1.0, 10.0, length) + np.arange(length) * rng.normal(0, 0.5)
        fit = fit_trend(y)
        b0, b1 = _grid_minimize_q(y)
        worst_slope = max(worst_slope, abs(fit.slope - b1))
        worst_intercept = max(worst_intercept, abs(fit.intercept - b0))
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "least-squares grid oracle",
        worst_slope <= 1e-6 and worst_intercept <= 1e-6,
        f"1000 windows, worst |slope diff| {worst_slope:.2e}, "
        f"worst |intercept diff| {worst_intercept:.2e} (<= 1e-6), {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# 4. null calibration: no structure at signal strength 0
# -----------------------------------------------------------------------

NULL_NET = {"hidden_layers": (16,), "batch_size": 100, "max_epochs": 8, "early_stop_patience": 3}


def test_criterion_4_null_calibration():
    t0 = time.perf_counter()
    means, rejections = [], 0
    n_panels = 50
    for i in range(n_panels):
        syn = SyntheticConfig(
            n_stocks=10, n_steps=1500, ticks_per_step=4, signal_strength=0.0, seed=4000 + i
        )
        config = ExperimentConfig(
            synthetic=syn, step_size=4, seed=400 + i, network=dict(NULL_NET), jobs=JOBS
        )
        report = run_cross_validated(config)
        means.append(report.mean_accuracies["model"])
        test = report.welch_tests["bestof"]
        if test is not None and test.p_value < 0.001:
            rejections += 1
    elapsed = time.perf_counter() - t0
    grand_mean = float(np.mean(means))
    _verdict(
        4, "null calibration",
        0.48 <= grand_mean <= 0.52 and rejections == 0 and elapsed < 600.0,
        f"{n_panels} null panels: mean accuracy {grand_mean:.4f} in [0.48, 0.52], "
        f"{rejections}/{n_panels} rejections at alpha=0.001, {elapsed:.0f}s < 600s",
    )


# -----------------------------------------------------------------------
# 5. planted-signal detection with the oracle upper bound
# -----------------------------------------------------------------------

SIGNAL_NET = {"hidden_layers": (32, 32), "batch_size": 100, "max_epochs": 30,
              "early_stop_patience": 5}


def test_criterion_5_planted_signal_detection():
    t0 = time.perf_counter()
    syn = SyntheticConfig(
        n_stocks=20, n_steps=3000, ticks_per_step=16, signal_strength=0.8,
        noise_sigma=0.01, seed=501,
    )
    config = ExperimentConfig(
        synthetic=syn, step_size=16, seed=52, network=dict(SIGNAL_NET), jobs=JOBS
    )
    report = run_cross_validated(config)
    bound = oracle_accuracy(syn, n_mc=50_000)
    elapsed = time.perf_counter() - t0
    model = report.mean_accuracies["model"]
    bestof = report.mean_accuracies["bestof"]
    p = report.welch_tests["bestof"].p_value
    ceiling = bound.estimate + 2 * bound.monte_carlo_error
    _verdict(
        5, "planted-signal detection",
        model >= bestof + 0.05 and p < 0.001 and model <= ceiling and elapsed < 900.0,
        f"model {model:.4f} vs best-of {bestof:.4f} (gap {model - bestof:+.4f} >= 0.05), "
        f"p {p:.2e} < 0.001, oracle {bound.estimate:.4f}+-{bound.monte_carlo_error:.4f} "
        f"(ceiling {ceiling:.4f}), {elapsed:.0f}s < 900s",
    )


# -----------------------------------------------------------------------
# 6. accuracy rises with gradient interval length
# -----------------------------------------------------------------------

def test_criterion_6_interval_length_ordering():
    t0 = time.perf_counter()
    syn = SyntheticConfig(
        n_stocks=10, n_steps=600, ticks_per_step=16, signal_strength=0.8,
        noise_sigma=0.01, micro_sigma=0.001, seed=601,
    )
    net = {"hidden_layers": (32, 32), "batch_size": 100, "max_epochs": 25,
           "early_stop_patience": 5}
    means = {}
    for step in (2, 4, 16):  # half-hour / hour / day analogues (s, 2s, 8s)
        accs = [
            run_cross_validated(
                ExperimentConfig(
                    synthetic=syn, step_size=step, seed=master, network=dict(net), jobs=JOBS
                )
            ).mean_accuracies["model"]
            for master in (1, 2, 3, 4, 5)
        ]
        means[step] = float(np.mean(accs))
    elapsed = time.perf_counter() - t0
    ordered = means[2] < means[4] < means[16]
    _verdict(
        6, "interval-length ordering",
        ordered,
        f"5-seed means: s=2 {means[2]:.4f} < s=4 {means[4]:.4f} < s=16 {means[16]:.4f} "
        f"(strict), {elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# 7. bottleneck width sweep is monotone and nearly saturates at 10
# -----------------------------------------------------------------------

def test_criterion_7_bottleneck_monotonicity():
    t0 = time.perf_counter()
    syn = SyntheticConfig(
        n_stocks=24, n_steps=2000, ticks_per_step=8, signal_strength=0.8,
        noise_sigma=0.01, seed=702,
    )
    net = {"hidden_layers": (64, 64, 64, 64, 64), "batch_size": 100,
           "max_epochs": 5, "early_stop_patience": 5, "learning_rate": 0.04}
    config = ExperimentConfig(
        mode="bottleneck_sweep", synthetic=syn, step_size=8, seed=7,
        network=net, bottleneck_widths=(1, 3, 5, 10), jobs=JOBS,
    )
    reports = run_bottleneck_sweep(config)
    elapsed = time.perf_counter() - t0
    accs = [r.mean_accuracies["model"] for r in reports]  # widths 1, 3, 5, 10, none
    widths = [r.bottleneck for r in reports]
    shared_folds = len({r.fold_hash for r in reports}) == 1
    monotone = all(a <= b for a, b in zip(accs, accs[1:]))
    close_to_full = abs(accs[-1] - accs[-2]) <= 0.03
    detail = ", ".join(f"b={w}: {a:.4f}" for w, a in zip(widths, accs))
    _verdict(
        7, "bottleneck monotonicity",
        monotone and close_to_full and shared_folds and elapsed < 1800.0,
        f"{detail}; non-decreasing, |acc(10)-acc(none)| = {abs(accs[-1] - accs[-2]):.4f} "
        f"<= 0.03, shared folds {shared_folds}, {elapsed:.0f}s < 1800s",
    )


# -----------------------------------------------------------------------
# 8. crisis robustness: chronological split with a volatile test side
# -----------------------------------------------------------------------

def test_criterion_8_crisis_robustness():
    t0 = time.perf_counter()
    syn = SyntheticConfig(
        n_stocks=20, n_steps=2000, ticks_per_step=8, signal_strength=0.8,
        noise_sigma=0.01, seed=801,
        regime_switch=RegimeSwitch(switch_step=1500, crisis_drift=-0.002,
                                   crisis_sigma_multiplier=1.3),
    )
    start, end = crisis_window(syn)
    config = ExperimentConfig(
        mode="crisis", synthetic=syn, step_size=8, seed=82,
        network=dict(SIGNAL_NET), crisis_start=start, crisis_end=end, jobs=JOBS,
    )
    report = run_crisis(config)
    elapsed = time.perf_counter() - t0
    m = report.mean_accuracies
    p = report.welch_tests["bestof"].p_value
    structure = m["class2"] < 0.5 < m["class1"] < m["model"]
    _verdict(
        8, "crisis robustness",
        m["class1"] > 0.5 and m["model"] > m["bestof"] and p < 0.001 and structure,
        f"class1 {m['class1']:.4f} > 0.5 > class2 {m['class2']:.4f}, "
        f"model {m['model']:.4f} > best-of {m['bestof']:.4f}, p {p:.2e} < 0.001, "
        f"{elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# 9. statistics fixtures: Welch values and whiskers against brute force
# -----------------------------------------------------------------------

def _whiskers_bruteforce(values):
    ordered = sorted(values)
    n = len(ordered)

    def quantile(q):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    q1, q3 = quantile(0.25), quantile(0.75)
    iqr = q3 - q1
    hi_fence, lo_fence = q3 + 1.5 * iqr, q1 - 1.5 * iqr
    inside_hi = [v for v in values if v <= hi_fence]
    inside_lo = [v for v in values if v >= lo_fence]
    wh = max(inside_hi) if inside_hi and max(inside_hi) >= q3 else q3
    wl = min(inside_lo) if inside_lo and min(inside_lo) <= q1 else q1
    return wl, wh


WELCH_FIXTURES = [
    ((0.60, 0.61, 0.59, 0.60), (0.50, 0.51, 0.49, 0.50),
     17.32050807568877294, 6.0, 1.186667271948124374e-6),
    ((0.70, 0.60, 0.65), (0.50, 0.52, 0.48, 0.50, 0.50),
     5.075761891443091935, 34322.0 / 15643.0, 0.01509798672366094587),
    ((0.48, 0.50, 0.47, 0.49, 0.51, 0.46), (0.52, 0.55, 0.50, 0.53),
     -3.098386676965933508, 375.0 / 62.0, 0.9895299053038670113),
]


def test_criterion_9_statistics_fixtures():
    worst_t = worst_dof = worst_p = 0.0
    for a, b, t_ref, dof_ref, p_ref in WELCH_FIXTURES:
        result = welch_upper_tail(np.array(a), np.array(b), alpha=0.001)
        worst_t = max(worst_t, abs(result.t_statistic - t_ref))
        worst_dof = max(worst_dof, abs(result.degrees_of_freedom - dof_ref))
        worst_p = max(worst_p, abs(result.p_value - p_ref))
    rng = np.random.default_rng(9009)
    whiskers_exact = True
    for _ in range(100):
        n = int(rng.integers(5, 60))
        sample = np.round(rng.normal(0.5, 0.1, n), 4)
        if rng.random() < 0.3:
            sample[: max(1, n // 10)] += rng.choice([-0.6, 0.6])
        result = box_stats(sample)
        wl, wh = _whiskers_bruteforce(sample.tolist())
        if not (result.whisker_low == wl and result.whisker_high == wh):
            whiskers_exact = False
    _verdict(
        9, "statistics fixtures",
        worst_t <= 1e-6 and worst_dof <= 1e-6 and worst_p <= 5e-7 and whiskers_exact,
        f"3 Welch fixtures: |dt| {worst_t:.1e} <= 1e-6, |ddof| {worst_dof:.1e} <= 1e-6, "
        f"|dp| {worst_p:.1e} <= 5e-7; whiskers exact on 100 random samples: {whiskers_exact}",
    )


# -----------------------------------------------------------------------
# 10. byte-identical reports under identical config and seed
# -----------------------------------------------------------------------

def test_criterion_10_pipeline_determinism(tmp_path):
    def run_once(out_name):
        config = ExperimentConfig(
            synthetic=SyntheticConfig(
                n_stocks=5, n_steps=200, ticks_per_step=4, signal_strength=0.5, seed=8
            ),
            step_size=4, seed=19,
            network={"hidden_layers": (8,), "batch_size": 20, "max_epochs": 4,
                     "early_stop_patience": 4},
        )
        report = run_cross_validated(config)
        files = emit_report(report, tmp_path / out_name, formats=("json",))
        return files[0]

    first = run_once("a")
    second = run_once("b")
    identical = first.read_bytes() == second.read_bytes()
    _verdict(
        10, "pipeline determinism",
        identical,
        "two identical runs produce byte-identical JSON",
    )


# -----------------------------------------------------------------------
# 11. XOR sanity for the from-scratch trainer
# -----------------------------------------------------------------------

def test_criterion_11_xor_sanity():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    y = np.eye(2)[labels]
    # default config scaled to the task: 2-8-2 architecture, batch = full
    # set of 4, epoch budget 5000 with the per-epoch decay rescaled so the
    # cumulative decay over the budget matches the default 50-epoch horizon
    config = NetworkConfig(
        input_dim=2,
        hidden_layers=(8,),
        batch_size=4,
        max_epochs=5000,
        early_stop_patience=5000,
        lr_decay=0.97 ** (50 / 5000),
        rng_seed=7,
    )
    model = init(config)
    report = train(model, (x, y), (x, y))
    accuracy = float(np.mean(neural.predict_class(model, x) == labels))
    _verdict(
        11, "XOR sanity",
        accuracy == 1.0 and report.epochs_run <= 5000,
        f"2-8-2 net reaches {accuracy:.0%} training accuracy in "
        f"{report.epochs_run} epochs (<= 5000)",
    )
