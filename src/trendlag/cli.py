"""Command-line entry point.

    trendlag run    --config exp.ini [--mode cross|crisis|bottleneck]
                    [--step-size N] [--seed N] [--out DIR] [--jobs N]
    trendlag synth  --config exp.ini --out panel.csv [--format matrix|ticks]
    trendlag report --in report.json [--format csv] [--out DIR]

Exit codes: 0 success, 1 config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from .errors import ConfigError, DataError
from .harness import (
    MODE_ALIASES,
    ExperimentReport,
    emit_report,
    load_experiment_config,
    load_synthetic_config,
    run,
)
from .synth import generate, write_tick_csv

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendlag", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--mode", choices=sorted(MODE_ALIASES), help="override the configured mode")
    p_run.add_argument("--step-size", type=int, help="override the gradient interval length")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument(
        "--jobs", type=int,
        help="worker processes (forked, one BLAS thread each); use at most the core count",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--config", required=True, help="config file with a [synthetic] section")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--format", choices=("matrix", "ticks"), default="matrix")

    p_report = sub.add_parser("report", help="convert a stored JSON report")
    p_report.add_argument("--in", dest="input", required=True, help="report JSON path")
    p_report.add_argument("--format", choices=("csv",), default="csv")
    p_report.add_argument("--out", help="output directory (default: alongside the input)")
    return parser


def _print_summary(report: ExperimentReport) -> None:
    label = report.mode if report.bottleneck is None else f"{report.mode} (bottleneck={report.bottleneck})"
    evaluated = report.evaluated_stocks()
    print(f"{label}: {len(evaluated)}/{len(report.stocks)} stocks evaluated")
    for series, mean in report.mean_accuracies.items():
        line = f"  {series:<11s} mean accuracy {mean:.4f}"
        test = report.welch_tests.get(series)
        if test is not None:
            line += f"  (p={test.p_value:.3g}, min diff={test.min_difference:+.4f})"
        print(line)
    if report.max_model_accuracy is not None:
        print(f"  max model accuracy {report.max_model_accuracy:.4f}")


def _check_out_dir(path: str | Path) -> None:
    """A ConfigError for an output path that exists but is not a directory."""
    if Path(path).exists() and not Path(path).is_dir():
        raise ConfigError(f"output path {path} exists and is not a directory")


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    if args.mode:
        config.mode = MODE_ALIASES[args.mode]
    if args.step_size is not None:
        config.step_size = args.step_size
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.out_dir = args.out
    if args.jobs is not None:
        config.jobs = args.jobs
    _check_out_dir(config.out_dir)  # before the experiment, not after it
    start = time.perf_counter()
    reports = run(config)
    print(f"experiment ran in {time.perf_counter() - start:.2f} s")
    for report in reports:
        files = emit_report(report, config.out_dir)
        _print_summary(report)
        for path in files:
            print(f"  wrote {path}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.is_dir():  # before the panel is generated, not after it
        raise ConfigError(f"output path {out} is a directory, not a CSV file")
    matrix = generate(load_synthetic_config(args.config))
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "matrix":
        matrix.to_csv(out)
        print(f"wrote {matrix.n_rows} x {matrix.n_stocks} price matrix to {out}")
    else:
        rows = write_tick_csv(matrix, out)
        print(f"wrote {rows} tick rows to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    out_dir = Path(args.out) if args.out else path.parent
    _check_out_dir(out_dir)
    try:
        report = ExperimentReport.from_dict(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: not a trendlag report: {exc}") from exc
    files = emit_report(report, out_dir, formats=(args.format,), stem=path.stem)
    for f in files:
        print(f"wrote {f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("experiment failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
