"""Rebuild the golden reports beside this script.

    PYTHONPATH=src python tests/golden/rebuild.py

Each subdirectory holds the JSON, ``.csv`` and ``_box.csv`` files that
``trendlag run`` writes at ``--jobs 1`` for one small synthetic panel:
``cross``, ``crisis`` (the panel has a regime switch), ``sweep`` (two
bottleneck widths and the unconstrained net) and ``ticks`` (the panel written
as a tick CSV with missing rows, then run with ``source = ticks``).
``tests/test_golden.py`` reruns them at ``--jobs 2`` and compares bytes.

Rebuild only in a change that means to move report bytes, and name the files
that moved; the diff is the record of what changed.
"""

import os
import shutil
import tempfile
from pathlib import Path

from trendlag import cli, harness, synth

# six stocks, so that every box summary has its five evaluated stocks
CONFIG = """
[data]
{source}

[synthetic]
n_stocks = 6
n_steps = 160
ticks_per_step = 4
signal_strength = 0.6
seed = 3
regime_switch_step = 120
crisis_drift = -0.002
crisis_sigma_multiplier = 1.3

[network]
hidden_layers = 8
batch_size = 20
max_epochs = 3
early_stop_patience = 3

[experiment]
step_size = 4
bottleneck_widths = 2, 3
seed = 11
"""

# subdirectory -> (--mode, [data] lines)
RUNS = {
    "cross": ("cross", "source = synthetic"),
    "crisis": ("crisis", "source = synthetic"),
    "sweep": ("bottleneck", "source = synthetic"),
    # relative, so the config snapshot in the report names no scratch directory
    "ticks": ("cross", "source = ticks\ntick_csv = ticks.csv"),
}


def write_reports(out: Path, jobs: int) -> None:
    """Run every entry of ``RUNS`` into ``out/<name>`` with ``jobs`` workers.

    The config files and the tick CSV are written into the working directory.
    """
    for name, (mode, source) in RUNS.items():
        config = Path(f"{name}.ini")
        config.write_text(CONFIG.format(source=source), encoding="utf-8")
        if name == "ticks":
            panel = synth.generate(harness.load_synthetic_config(config))
            synth.write_tick_csv(panel, "ticks.csv", missing_fraction=0.05, seed=4)
        argv = ["run", "--config", str(config), "--mode", mode, "--jobs", str(jobs)]
        if cli.main([*argv, "--out", str(out / name)]) != 0:
            raise RuntimeError(f"golden run {name!r} failed")


def main() -> None:
    here = Path(__file__).resolve().parent
    for name in RUNS:
        shutil.rmtree(here / name, ignore_errors=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_reports(here, jobs=1)


if __name__ == "__main__":
    main()
