"""Synthetic multi-stock panels with a planted lag-1 cross-stock dependency.

Log prices advance in signal steps.  Each stock's per-step return is

    drift_k + market_k + signal_strength * signal_amplitude * tanh(c_j) + noise

where c_j is a coupling-weighted sum of the *other* stocks' trend gradients
over the previous step (zero coupling diagonal, mirroring the
leave-target-out premise), cross-sectionally demeaned and scaled so tanh
operates in its responsive range.  The gradients driving the coupling are
computed with the same least-squares slope the feature pipeline uses,
applied to the log of the tick path, so the planted relation lives in the
feature space a model sees (price-level gradients are the log gradients
rescaled by the slowly varying price level).

Within each step, ``ticks_per_step`` tick rows interpolate the move with
mean-zero micro noise at interior ticks, so regressions over shorter
windows are noisier than full-step regressions.

A regime switch models a crisis.  From ``switch_step`` on, the per-step
drift is ``crisis_drift``, step noise is multiplied by
``crisis_sigma_multiplier``, and a market-wide grind-and-rally component
``market_k`` switches on: a persistent AR(1) driven by skewed zero-mean
innovations (frequent small grinds lower, occasional sharp rallies).  Its
mean is zero, so prices stay bounded, but gradient *changes* acquire a
negative median: direction-change labels skew downward for as long as the
crisis lasts.  An iid return distribution cannot do this (differences of
iid draws are symmetric no matter how skewed), which is why the crisis
needs the persistent component.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features import slope_weights
from .market_data import (
    _BLOCK_ROWS, TICK_HEADER, PriceMatrix, TimeGrid, format_timestamp, parse_timestamp,
)

DEFAULT_START = "2006-01-02T00:00:00.000Z"

# write_tick_csv's bid and ask, as fractions below and above the price
RELATIVE_SPREAD = 1e-4

# Crisis grind-and-rally shape: rallies of RALLY_SIZE crisis-noise units
# arrive with probability RALLY_PROBABILITY per step; grinds balance them
# to zero mean; RALLY_PERSISTENCE is the AR(1) memory of the component.
RALLY_PROBABILITY = 0.15
RALLY_PERSISTENCE = 0.7
RALLY_SIZE = 4.0


def random_coupling(n_stocks: int, seed: int) -> np.ndarray:
    """Dense Gaussian coupling matrix with zero diagonal."""
    rng = np.random.default_rng([seed, 0xC0FFEE])
    c = rng.normal(size=(n_stocks, n_stocks))
    np.fill_diagonal(c, 0.0)
    return c


@dataclass(frozen=True)
class RegimeSwitch:
    """Crisis regime: drift level, volatility multiplier, grind-and-rally skew."""

    switch_step: int
    crisis_drift: float = 0.0
    crisis_sigma_multiplier: float = 1.0


@dataclass
class SyntheticConfig:
    """Panel dimensions, planted-signal strength, and noise levels.

    ``signal_strength`` in [0, 1] scales the coupling term; 0 yields
    independent random walks.  ``micro_sigma`` defaults to a quarter of
    ``noise_sigma``.  ``signal_amplitude`` is the per-step log-return scale
    of a fully saturated coupling term.
    """

    n_stocks: int = 20
    n_steps: int = 3000
    ticks_per_step: int = 16
    signal_strength: float = 0.0
    coupling_matrix: np.ndarray | None = None
    noise_sigma: float = 0.01
    drift: float = 0.0
    micro_sigma: float | None = None
    signal_amplitude: float = 0.02
    regime_switch: RegimeSwitch | None = None
    seed: int = 0
    start: str = DEFAULT_START
    step_duration_seconds: float = 60.0
    start_price: float = 100.0

    def validate(self) -> None:
        if self.n_stocks < 2:
            raise ConfigError("need at least 2 stocks for cross-stock coupling")
        if self.n_steps < 2:
            raise ConfigError("need at least 2 steps")
        if self.ticks_per_step < 2:
            raise ConfigError("ticks_per_step must be >= 2 (gradient windows need 2 points)")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must lie in [0, 1]")
        if self.noise_sigma < 0 or self.signal_amplitude < 0:
            raise ConfigError("noise_sigma and signal_amplitude must be non-negative")
        # _simulate squares both in the scale that standardizes step returns
        amp = self.signal_strength * self.signal_amplitude
        for key, value in (("noise_sigma", self.noise_sigma), ("signal_amplitude", amp)):
            if value * value == math.inf:
                raise ConfigError(f"{key} = {getattr(self, key)} squares past the largest float")
        if self.micro_sigma is not None and self.micro_sigma < 0:
            raise ConfigError("micro_sigma must be non-negative")
        if self.coupling_matrix is not None:
            c = np.asarray(self.coupling_matrix, dtype=np.float64)
            if c.shape != (self.n_stocks, self.n_stocks):
                raise ConfigError(
                    f"coupling matrix shape {c.shape} does not match "
                    f"{self.n_stocks} stocks"
                )
            if np.abs(np.diagonal(c)).max(initial=0.0) != 0.0:
                raise ConfigError("coupling matrix must have a zero diagonal")
        if self.regime_switch is not None:
            rs = self.regime_switch
            if not 0 < rs.switch_step < self.n_steps:
                raise ConfigError(
                    f"switch_step {rs.switch_step} outside (0, {self.n_steps})"
                )
            if rs.crisis_sigma_multiplier <= 0:
                raise ConfigError("crisis_sigma_multiplier must be positive")
        if self.step_duration_seconds <= 0:
            raise ConfigError("step_duration_seconds must be positive")
        if self.start_price <= 0:
            raise ConfigError("start_price must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            start = parse_timestamp(self.start)
        except ValueError as exc:
            raise ConfigError(f"start {self.start!r} is not an ISO-8601 timestamp") from exc
        try:  # the last grid instant, in the years 1-9999 that timestamps are read back in
            step = timedelta(seconds=self.step_duration_seconds)
            start.astype(datetime) + (self.n_steps * self.ticks_per_step - 1) * step
        except OverflowError as exc:
            raise ConfigError(
                f"step_duration_seconds = {self.step_duration_seconds} ends the grid past year 9999"
            ) from exc
        if step < timedelta(milliseconds=1):  # the grid keeps whole milliseconds
            raise ConfigError(
                f"step_duration_seconds = {self.step_duration_seconds} is under the 1 ms grid unit"
            )

    def resolved_coupling(self) -> np.ndarray:
        if self.coupling_matrix is not None:
            return np.asarray(self.coupling_matrix, dtype=np.float64)
        return random_coupling(self.n_stocks, self.seed)

    def resolved_micro_sigma(self) -> float:
        return 0.25 * self.noise_sigma if self.micro_sigma is None else self.micro_sigma

    def stock_ids(self) -> tuple[str, ...]:
        return tuple(f"S{i:03d}" for i in range(self.n_stocks))

    def step_drifts(self) -> np.ndarray:
        d = np.full(self.n_steps, self.drift, dtype=np.float64)
        if self.regime_switch is not None:
            d[self.regime_switch.switch_step:] = self.regime_switch.crisis_drift
        return d

    def step_sigmas(self) -> np.ndarray:
        s = np.full(self.n_steps, self.noise_sigma, dtype=np.float64)
        if self.regime_switch is not None:
            s[self.regime_switch.switch_step:] *= self.regime_switch.crisis_sigma_multiplier
        return s

    def _grid(self) -> TimeGrid:
        return TimeGrid.regular(
            self.start,
            timedelta(seconds=self.step_duration_seconds),
            self.n_steps * self.ticks_per_step,
        )


@dataclass
class _StepTrace:
    """Per-step internals the oracle needs alongside the price rows."""

    log_rows: np.ndarray        # (n_steps * ticks_per_step, n_stocks)
    signal_terms: np.ndarray    # (n_steps, n_stocks): signal * amp * tanh(c)
    market: np.ndarray          # (n_steps,): grind-and-rally component


def _simulate(config: SyntheticConfig, rng: np.random.Generator) -> _StepTrace:
    n, steps, tps = config.n_stocks, config.n_steps, config.ticks_per_step
    coupling = config.resolved_coupling()
    row_norm = np.sqrt((coupling**2).sum(axis=1))
    row_norm[row_norm == 0.0] = 1.0
    drifts = config.step_drifts()
    sigmas = config.step_sigmas()
    micro = config.resolved_micro_sigma()
    amp = config.signal_strength * config.signal_amplitude
    # scale for standardizing previous-step return estimates before tanh
    z_scale = math.sqrt(config.noise_sigma**2 + 0.5 * amp**2)
    if z_scale <= 0.0:
        z_scale = 1.0
    w_slope = slope_weights(tps)
    frac = (np.arange(1, tps + 1, dtype=np.float64) / tps)[:, None]
    rs = config.regime_switch
    rally, grind = _rally_and_grind(config)

    log_rows = np.empty((steps * tps, n))
    signal_terms = np.empty((steps, n))
    market = np.zeros(steps)
    boundary = np.zeros(n)
    m_prev = 0.0
    z_prev = None
    for k in range(steps):
        if rs is not None and k >= rs.switch_step:
            shock = rally if rng.random() < RALLY_PROBABILITY else grind
            market[k] = RALLY_PERSISTENCE * m_prev + shock
        m_prev = market[k]
        if z_prev is None:
            signal_terms[k] = 0.0
        else:
            c = (coupling @ z_prev) / row_norm
            signal_terms[k] = amp * np.tanh(c)
        r = drifts[k] + market[k] + signal_terms[k] + sigmas[k] * rng.standard_normal(n)
        block = boundary + frac * r
        if micro > 0.0 and tps > 1:
            block[:-1] += micro * rng.standard_normal((tps - 1, n))
        log_rows[k * tps : (k + 1) * tps] = block
        boundary = boundary + r
        # the pipeline's least-squares slope, on the log scale
        step_returns = (w_slope @ block) * tps
        z_prev = (step_returns - step_returns.mean()) / z_scale
    return _StepTrace(log_rows=log_rows, signal_terms=signal_terms, market=market)


def _rally_and_grind(config: SyntheticConfig) -> tuple[float, float]:
    """Skewed zero-mean crisis innovations: P(rally) * rally + P(grind) * grind = 0."""
    if config.regime_switch is None:
        return 0.0, 0.0
    crisis_sigma = config.noise_sigma * config.regime_switch.crisis_sigma_multiplier
    rally = RALLY_SIZE * crisis_sigma
    grind = -rally * RALLY_PROBABILITY / (1.0 - RALLY_PROBABILITY)
    return rally, grind


def generate(config: SyntheticConfig) -> PriceMatrix:
    """Generate one panel as a fully observed PriceMatrix.

    Identical config (including seed) reproduces the panel exactly.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # prices out of range are refused below
        prices = config.start_price * np.exp(_simulate(config, rng).log_rows)
    if not 0.0 < prices.min() <= prices.max() < math.inf:  # NaN fails both
        raise ConfigError(
            "synthetic prices leave the positive float range; lower start_price, drift, "
            "noise_sigma, micro_sigma, signal_amplitude, crisis_drift or crisis_sigma_multiplier"
        )
    return PriceMatrix(
        grid=config._grid(),
        stock_ids=config.stock_ids(),
        values=prices,
        fill_mask=np.zeros_like(prices, dtype=bool),
    )


def crisis_window(config: SyntheticConfig) -> tuple[np.datetime64, np.datetime64]:
    """Grid instants bracketing the crisis segment [switch, end]."""
    if config.regime_switch is None:
        raise ConfigError("config has no regime switch")
    grid = config._grid()
    start = grid.instants[config.regime_switch.switch_step * config.ticks_per_step]
    return start, grid.instants[-1]


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it before another field: quoted where it must be."""
    out = io.StringIO()
    csv.writer(out).writerow((text, ""))
    return out.getvalue()[: -len(",\r\n")]


def write_tick_csv(
    matrix: PriceMatrix,
    path: str | Path,
    missing_fraction: float = 0.0,
    seed: int = 0,
) -> int:
    """Emit the panel as tick CSV rows so ingestion can be exercised end to end.

    Rows are interleaved time-major across stocks; ``missing_fraction``
    randomly drops that share of rows to give fill_missing work to do.
    Returns the number of rows written.
    """
    if not 0.0 <= missing_fraction < 1.0:
        raise ConfigError("missing_fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    # one draw for the panel takes the same numbers as one draw per grid row
    keep = rng.random((matrix.n_rows, matrix.n_stocks)) >= missing_fraction
    row_of, stock_of = np.nonzero(keep)  # the kept cells, time-major
    stamps = [format_timestamp(t) for t in matrix.grid.instants]
    ids = [_csv_field(s) for s in matrix.stock_ids]
    line = "{},{},{},{},100,{}\r\n".format  # csv.writer's row with its line terminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(TICK_HEADER)
        for start in range(0, row_of.size, _BLOCK_ROWS):  # so the text is never held whole
            rows, stocks = row_of[start:start + _BLOCK_ROWS], stock_of[start:start + _BLOCK_ROWS]
            price = matrix.values[rows, stocks]
            fh.write("".join(map(
                line,
                map(ids.__getitem__, stocks.tolist()),
                map(stamps.__getitem__, rows.tolist()),
                map(repr, (price * (1.0 - RELATIVE_SPREAD)).tolist()),
                map(repr, (price * (1.0 + RELATIVE_SPREAD)).tolist()),
                map(repr, price.tolist()),
            )))
    return int(row_of.size)


@dataclass(frozen=True)
class OracleBound:
    """Monte-Carlo accuracy of the generative-rule-aware predictor."""

    estimate: float
    monte_carlo_error: float
    n_samples: int


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise: 0.5 erfc(-x / sqrt 2)."""
    return 0.5 * _erfc(-x / math.sqrt(2.0)).astype(np.float64)


def _oracle_up_probability(config: SyntheticConfig, trace: _StepTrace) -> np.ndarray:
    """P(gradient change > 0 | rule + other stocks' history) per (interval, stock).

    For interval k the predictor knows the coupling terms of steps k and
    k-1 (zero diagonal: no target information needed), the drift schedule,
    and the market-wide grind-and-rally state, which is common to all
    stocks and hence readable off the others.  The unknown remainder is
    the two idiosyncratic step shocks, the crisis innovation, and the
    regression estimation noise from micro ticks.
    """
    tps = config.ticks_per_step
    micro = config.resolved_micro_sigma()
    # estimation noise of one fitted step return: var = micro^2 * tps^2 / sum dx^2
    est_var = micro**2 * tps**2 * 12.0 / (tps * (tps**2 - 1.0))
    sig, market = trace.signal_terms, trace.market
    drifts, sigmas = config.step_drifts(), config.step_sigmas()
    rs = config.regime_switch
    rally, grind = _rally_and_grind(config)

    # expected change without the crisis innovation, intervals k = 2..K-1
    base = sig[2:] - sig[1:-1]
    known_prev = drifts[1:-1] + market[1:-1]
    steps = np.arange(2, config.n_steps)
    in_crisis = (
        np.zeros(steps.size, dtype=bool)
        if rs is None
        else steps >= rs.switch_step
    )
    persistent = np.where(
        in_crisis, RALLY_PERSISTENCE * market[1:-1], 0.0
    )
    mu = base + (drifts[2:] + persistent - known_prev)[:, None]
    spread = np.sqrt(sigmas[2:] ** 2 + sigmas[1:-1] ** 2 + 2.0 * est_var)
    spread = np.maximum(spread, 1e-12)[:, None]
    p_up = _ndtr(mu / spread)
    if rs is not None and in_crisis.any():
        mix = RALLY_PROBABILITY * _ndtr((mu + rally) / spread) + (
            1.0 - RALLY_PROBABILITY
        ) * _ndtr((mu + grind) / spread)
        p_up = np.where(in_crisis[:, None], mix, p_up)
    return p_up


def oracle_accuracy(config: SyntheticConfig, n_mc: int = 10_000) -> OracleBound:
    """Accuracy bound for models restricted to other stocks' past gradients.

    The rule-aware predictor computes the probability that a stock's
    gradient moves up, using only quantities recoverable without target
    information, predicts up when that probability exceeds one half, and
    is scored against the same price-level fitted-slope labels the
    pipeline produces.  Simulated panels are drawn until at least ``n_mc``
    prediction samples accumulate; the returned standard error is the
    binomial Monte-Carlo error.
    """
    config.validate()
    if n_mc < 10_000:
        raise ConfigError("oracle_accuracy needs n_mc >= 10000 for a stable estimate")
    if config.n_steps < 3:
        raise ConfigError("oracle_accuracy needs n_steps >= 3 to score a gradient change")
    tps = config.ticks_per_step
    w_slope = slope_weights(tps)
    correct = 0
    total = 0
    for i in range(math.ceil(n_mc / (config.n_stocks * (config.n_steps - 2)))):
        panel = replace(config, seed=config.seed + 7919 * (i + 1))
        trace = _simulate(panel, np.random.default_rng(panel.seed))
        p_up = _oracle_up_probability(config, trace)
        predict_up = p_up > 0.5
        # the pipeline's price-level slope of every step at once
        prices = config.start_price * np.exp(trace.log_rows)
        slopes = w_slope @ prices.reshape(config.n_steps, tps, config.n_stocks)
        label_up = slopes[2:] > slopes[1:-1]
        correct += int((predict_up == label_up).sum())
        total += predict_up.size
    estimate = correct / total
    error = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / total)
    return OracleBound(estimate=estimate, monte_carlo_error=error, n_samples=total)
