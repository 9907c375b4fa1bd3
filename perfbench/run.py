"""End-to-end benchmark of trendlag experiments, with an optional traced run.

    python3 perfbench/run.py --workload cv_panel --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
run does, in order:

1. set-up: import trendlag in a fresh interpreter, then build the
   workload's inputs from ``--seed``;
2. a serial (``jobs = 1``) reference experiment, which also warms the
   machine up; its report hash is the one every later run must match;
3. experiments at the workload's ``jobs`` until ``--seconds`` have passed
   (at least three); each runs in a forked child so that its peak memory
   and CPU time are its own.  Four more set-ups are timed between them and
   ``setup_s`` is the median of all five;
4. with ``--trace 1``: one more serial experiment in this process with
   spans around trendlag's public functions, and a kernel probe.

Reports are hashed with the provenance fields that legitimately differ
between runs masked (``wall_clock_seconds``, ``created_utc`` and the
``jobs`` setting).  Human-readable lines come first; the last line of
standard output is one JSON object with the end-to-end metrics, or with
``--trace 1`` the per-module metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS = 5
MIN_REPS = 3
DEADLINE_S = 170.0
POLL_S = 0.1
MASKED_PROVENANCE = ("wall_clock_seconds", "created_utc")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import trendlag; print(time.perf_counter() - t)"
)


@dataclass
class Rep:
    """One forked experiment: wall time inside the child, rusage, memory."""

    wall: float | None  # None when the child failed
    cpu_s: float
    peak_mb: float
    error: str = ""


@dataclass
class Outcome:
    digest: str
    nets: int
    model_accuracy: float
    accuracy_gap: float


def tree_pss_kb(pid: int) -> int:
    """Proportional set size of a process and all its descendants, in KiB.

    PSS splits each shared page among the processes that map it, so
    forked workers are not charged again for their parent's pages.
    """
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


def run_forked(fn, cwd: Path, log: Path, deadline: float) -> Rep:
    """Run ``fn()`` in a forked child; the child times itself.

    Peak memory is the larger of the child's own resident high-water mark
    (which covers descendants it waited for) and the sampled proportional
    set size of its process tree, which covers workers alive at the same
    time.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.chdir(cwd)
            t0 = time.perf_counter()
            fn()
            os.write(write_end, repr(time.perf_counter() - t0).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            with contextlib.suppress(Exception):
                sys.stdout.flush()
                sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    sampled_kb, killed = 0, False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                killed = True
                break
            sampled_kb = max(sampled_kb, tree_pss_kb(pid))
            time.sleep(POLL_S)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    with os.fdopen(read_end, "rb") as fh:
        payload = fh.read()
    cpu_s = usage.ru_utime + usage.ru_stime
    peak_mb = max(usage.ru_maxrss, sampled_kb) / 1024.0
    if killed:
        return Rep(None, cpu_s, peak_mb, "killed at the run deadline")
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        return Rep(None, cpu_s, peak_mb, f"experiment exited with {os.waitstatus_to_exitcode(status)}")
    return Rep(float(payload), cpu_s, peak_mb)


def read_reports(out_dir: Path) -> Outcome:
    """Hash the emitted report files and read the accuracies back.

    A JSON file without provenance is not a report (a timing sidecar,
    say); it is neither hashed nor counted.
    """
    digest = hashlib.sha256()
    reports = []
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            if "provenance" not in report:
                continue
            reports.append(report)
            prov = dict(report["provenance"])
            for key in MASKED_PROVENANCE:
                prov.pop(key, None)
            prov["config"] = {k: v for k, v in prov["config"].items() if k != "jobs"}
            data = json.dumps({**report, "provenance": prov}, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    if not reports:
        raise RuntimeError(f"no report JSON in {out_dir}")
    model = [r["mean_accuracies"]["model"] for r in reports]
    gap = [r["mean_accuracies"]["model"] - r["mean_accuracies"]["bestof"] for r in reports]
    nets = sum(len(s["fold_accuracies"]) for r in reports for s in r["stocks"] if not s["skipped"])
    return Outcome(digest.hexdigest(), nets, statistics.fmean(model), statistics.fmean(gap))


def check(outcome: Outcome, workload, reference: Outcome | None) -> str:
    """Empty when the reports are correct, else the reason they are not."""
    if reference is not None and outcome.digest != reference.digest:
        return f"report hash {outcome.digest[:16]} != serial reference {reference.digest[:16]}"
    if outcome.nets != workload.nets:
        return f"{outcome.nets} nets trained, expected {workload.nets}"
    if workload.min_accuracy_gap is not None and outcome.accuracy_gap < workload.min_accuracy_gap:
        return f"accuracy gap {outcome.accuracy_gap:.4f} < {workload.min_accuracy_gap}"
    return ""


def setup_once(workload, seed: int, work: Path):
    """One set-up: import trendlag in a fresh interpreter, then build the inputs."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    t_import = float(done.stdout.split()[-1])
    t0 = time.perf_counter()
    inputs = workload.setup(seed, work)
    return t_import + time.perf_counter() - t0, inputs


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "trendlag" / "__init__.py").is_file():
        print(f"perfbench: no trendlag package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        return _bench(args, WORKLOADS[args.workload], work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class BenchRun:
    """One benchmark run: the workload's inputs and the tally of experiments."""

    def __init__(self, workload, seed: int, work: Path, deadline: float, tracer) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline, self.tracer = deadline, tracer
        self.log = work / "experiments.log"
        self.setup_times: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.inputs = self.set_up()

    def set_up(self):
        """Time one set-up (traced in a traced run); keep its inputs."""
        if self.tracer:
            self.tracer.install()
        try:
            seconds, inputs = setup_once(self.workload, self.seed, self.work)
        finally:
            if self.tracer:
                self.tracer.uninstall()
        self.setup_times.append(seconds)
        return inputs

    def forked(self, jobs: int, name: str, reference: Outcome | None) -> tuple[Rep, Outcome | None]:
        experiment = lambda: self.workload.experiment(self.inputs, jobs, Path(name))
        rep = run_forked(experiment, self.work, self.log, self.deadline)
        return rep, self.verify(rep, self.work / name, reference)

    def verify(self, rep: Rep, out: Path, reference: Outcome | None) -> Outcome | None:
        """Count the experiment and check its reports; None if there are none.

        A failed check is recorded, but the experiment's time still counts.
        """
        self.attempted += 1
        problem, outcome = rep.error, None
        if not problem:
            try:
                outcome = read_reports(out)
                problem = check(outcome, self.workload, reference)
            except (OSError, ValueError, KeyError, RuntimeError) as exc:
                problem = f"unreadable reports: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        if problem:
            self.errors.append(problem)
        return outcome

    def fail(self, what: str) -> int:
        print(f"{what} failed: {self.errors[-1] if self.errors else 'no time left'}", file=sys.stderr)
        if self.log.exists():
            sys.stderr.write(self.log.read_text()[-4000:])
        return 1


def _bench(args, workload, work: Path, deadline: float) -> int:
    import kernels
    from tracing import Tracer, layer_metrics
    from workloads import probe_data

    machine = machine_record()
    print(f"workload {workload.name}: {workload.shape}; jobs {workload.jobs}; seed {args.seed}")
    print("machine " + json.dumps(machine))
    tracer = Tracer() if args.trace else None
    bench = BenchRun(workload, args.seed, work, deadline, tracer)

    ref_rep, reference = bench.forked(1, "reference", None)
    if reference is None:
        return bench.fail("serial reference")

    # Timed runs fill the window; the remaining set-ups are spread between
    # them, so that set-up and run times see the same machine.
    reps: list[Rep] = []
    t_start = time.monotonic()
    for i in itertools.count():
        typical = statistics.median([r.wall for r in reps] or [ref_rep.wall])
        if i >= MIN_REPS and time.monotonic() - t_start + typical > args.seconds:
            break
        if time.monotonic() + 1.5 * typical > deadline:
            break
        rep, _ = bench.forked(workload.jobs, f"rep{i}", reference)
        if rep.wall is not None:
            reps.append(rep)
        if len(bench.setup_times) < SETUPS:
            bench.set_up()
    while len(bench.setup_times) < SETUPS:
        bench.set_up()
    if not reps:
        return bench.fail("every timed run")

    run_s = statistics.median(r.wall for r in reps)
    end_to_end = {
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "run_s": (run_s, "s"),
        "nets_per_s": (workload.nets / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(r.peak_mb for r in reps), "MB"),
        "model_accuracy": (reference.model_accuracy, "fraction"),
    }
    print(f"runs: serial reference {ref_rep.wall:.3f} s; jobs={workload.jobs}: "
          + " ".join(f"{r.wall:.3f}" for r in reps) + " s")
    _print_metrics(end_to_end)
    print(f"  {'accuracy_gap':<44s} {reference.accuracy_gap:.6g} fraction")
    failed = len(bench.errors)
    print(f"  {'failed_ratio':<44s} {failed / bench.attempted:.6g} ({failed}/{bench.attempted})")
    for problem in bench.errors:
        print(f"  failed: {problem}")
    print(f"report sha256 (masked) {reference.digest}")

    metrics = end_to_end
    if tracer:
        cpu_s = statistics.median(r.cpu_s for r in reps)
        traced_rep = _traced_run(tracer, workload, bench.inputs, work, bench.log)
        if bench.verify(traced_rep, work / "traced", reference) is None:
            return bench.fail("traced run")
        tracer.write(WORK / "spans" / f"{workload.name}-seed{args.seed}.json")
        metrics = layer_metrics(tracer.spans, SETUPS)
        metrics.update({
            "harness.cpu_s": (cpu_s, "s"),
            "harness.cpu_util": (cpu_s / (run_s * machine["nproc"]), "ratio"),
            "harness.parallel_efficiency": (ref_rep.wall / (workload.jobs * run_s), "ratio"),
            "report.accuracy_gap": (reference.accuracy_gap, "fraction"),
            "trace.overhead": (traced_rep.wall / ref_rep.wall, "ratio"),
        })
        metrics.update(kernels.probe(*probe_data(bench.inputs)))
        print("per-module (traced serial run; spans in .perfbench_work/spans):")
        _print_metrics(metrics)

    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced_run(tracer, workload, inputs, work: Path, log: Path) -> Rep:
    """The serial experiment in this process, with every span recorded."""
    here = os.getcwd()
    tracer.install()
    try:
        os.chdir(work)
        with open(log, "a") as fh, contextlib.redirect_stdout(fh):
            with tracer.span("bench.experiment") as root:
                workload.experiment(inputs, 1, Path("traced"))
        return Rep(root.duration, 0.0, 0.0)
    except Exception as exc:
        return Rep(None, 0.0, 0.0, f"traced run raised {exc!r}")
    finally:
        tracer.uninstall()
        os.chdir(here)


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44s} {value:.6g} {unit}")


if __name__ == "__main__":
    raise SystemExit(main())
