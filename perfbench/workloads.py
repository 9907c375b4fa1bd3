"""The benchmark's workloads: inputs built from a seed, and one experiment call.

Every workload builds its inputs in ``setup`` and hands the program only
those inputs.  ``experiment`` is one end-to-end call that finishes when
the report files are on disk; it runs with the working directory set to
the run's work directory, so every path the reports record is relative.

The coupling matrix (which stocks lead which) is fixed per workload, so
that accuracy and training time are comparable across seeds; the seed
draws the price paths, the dropped tick rows and the experiment's master
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from trendlag import cli, harness, synth
from trendlag.market_data import format_timestamp
from trendlag.synth import RegimeSwitch, SyntheticConfig

COUPLING_SEED = 0

# The criterion-5 network: 19 -> 32 -> 32 -> 2 on a 20-stock panel.
SIGNAL_NET = {"hidden_layers": (32, 32), "batch_size": 100, "max_epochs": 30,
              "early_stop_patience": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    nets: int                      # stocks x folds x architectures
    min_accuracy_gap: float | None  # planted signal must be detected
    shape: str
    setup: Callable[[int, Path], Any]
    experiment: Callable[[Any, int, Path], None]


@dataclass(frozen=True)
class PanelInputs:
    config: harness.ExperimentConfig
    matrix: Any


def _panel(shape: dict, seed: int) -> SyntheticConfig:
    coupling = synth.random_coupling(shape["n_stocks"], COUPLING_SEED)
    return SyntheticConfig(**shape, coupling_matrix=coupling, seed=seed)


def _emit_all(reports, out: Path) -> None:
    for report in reports:
        harness.emit_report(report, out)


# -- cv_panel ---------------------------------------------------------------

CV_PANEL = dict(n_stocks=20, n_steps=1000, ticks_per_step=16, signal_strength=0.8,
                noise_sigma=0.01)


def _cv_setup(seed: int, work: Path) -> PanelInputs:
    syn = _panel(CV_PANEL, seed)
    config = harness.ExperimentConfig(
        synthetic=syn, step_size=16, seed=seed, network=dict(SIGNAL_NET)
    )
    return PanelInputs(config, synth.generate(syn))


def _cv_experiment(inputs: PanelInputs, jobs: int, out: Path) -> None:
    config = replace(inputs.config, jobs=jobs)
    _emit_all([harness.run_cross_validated(config, matrix=inputs.matrix)], out)


# -- tick_crisis ------------------------------------------------------------

CRISIS_PANEL = dict(
    n_stocks=20, n_steps=600, ticks_per_step=16, signal_strength=0.8, noise_sigma=0.01,
    regime_switch=RegimeSwitch(switch_step=450, crisis_drift=-0.002, crisis_sigma_multiplier=1.3),
)
TICK_CSV = "ticks.csv"
CONFIG_INI = "experiment.ini"
CRISIS_INI = """\
[data]
source = ticks
tick_csv = {tick_csv}
grid_step_seconds = 60

[network]
hidden_layers = 32,32
batch_size = 100
max_epochs = 30
early_stop_patience = 5

[experiment]
mode = crisis
step_size = 16
seed = {seed}
jobs = 1
crisis_start = {start}
crisis_end = {end}
"""


@dataclass(frozen=True)
class TickInputs:
    matrix: Any  # the panel the tick file was written from (kernel probe data)


def _crisis_setup(seed: int, work: Path) -> TickInputs:
    syn = _panel(CRISIS_PANEL, seed)
    matrix = synth.generate(syn)
    synth.write_tick_csv(matrix, work / TICK_CSV, missing_fraction=0.05, seed=seed)
    start, end = synth.crisis_window(syn)
    (work / CONFIG_INI).write_text(CRISIS_INI.format(
        tick_csv=TICK_CSV, seed=seed, start=format_timestamp(start), end=format_timestamp(end)
    ))
    return TickInputs(matrix)


def _crisis_experiment(inputs: TickInputs, jobs: int, out: Path) -> None:
    code = cli.main(["run", "--config", CONFIG_INI, "--out", str(out), "--jobs", str(jobs)])
    if code != 0:
        raise RuntimeError(f"trendlag run exited with code {code}")


# -- wide_sweep -------------------------------------------------------------

SWEEP_PANEL = dict(n_stocks=6, n_steps=300, ticks_per_step=8, signal_strength=0.8,
                   noise_sigma=0.01)


def _sweep_setup(seed: int, work: Path) -> PanelInputs:
    syn = _panel(SWEEP_PANEL, seed)
    config = harness.ExperimentConfig(
        mode="bottleneck_sweep", synthetic=syn, step_size=8, seed=seed,
        network={"max_epochs": 3}, bottleneck_widths=(3,),
    )
    return PanelInputs(config, synth.generate(syn))


def _sweep_experiment(inputs: PanelInputs, jobs: int, out: Path) -> None:
    config = replace(inputs.config, jobs=jobs)
    _emit_all(harness.run_bottleneck_sweep(config, matrix=inputs.matrix), out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cv_panel", jobs=2, nets=100, min_accuracy_gap=0.05,
            shape="20 stocks x 1000 steps x 16 ticks, step_size 16, net 19-32-32-2, "
                  "30 epochs, patience 5, 5 folds, in-memory panel",
            setup=_cv_setup, experiment=_cv_experiment,
        ),
        Workload(
            "tick_crisis", jobs=1, nets=20, min_accuracy_gap=None,
            shape="20 stocks x 600 steps x 16 ticks, crisis from step 450, 5% rows dropped, "
                  "net 19-32-32-2 via trendlag run",
            setup=_crisis_setup, experiment=_crisis_experiment,
        ),
        Workload(
            "wide_sweep", jobs=2, nets=60, min_accuracy_gap=None,
            shape="6 stocks x 300 steps x 8 ticks, step_size 8, net 5-400x5-2, "
                  "widths (3,) + none, 3 epochs, 5 folds",
            setup=_sweep_setup, experiment=_sweep_experiment,
        ),
    )
}


def probe_data(inputs) -> tuple[Any, int]:
    """The panel and step size the kernel probe draws its mini-batch from."""
    if isinstance(inputs, TickInputs):
        return inputs.matrix, 16
    return inputs.matrix, inputs.config.step_size
