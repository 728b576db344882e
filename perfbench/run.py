"""sparsefolio benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload loop-n10 --seed 1 --seconds 40 --trace 0

Set-up is timed in eleven fresh processes, each run from start to exit
(interpreter start, import of sparsefolio/numpy/scipy and writing the
workload's input CSVs); the median is ``setup_s``.  Between the first five
and the last six, one more process runs passes of the workload's command
list through ``sparsefolio.cli.main`` for ``--seconds``, checking every
output (see checks.py).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes (see tracer.py).  The
last stdout line is the result as one JSON object; the line before it is a
report with the environment, the time samples and the output digest.  The
exit code is 0 only when every check passed.

This process and every process it starts run on one CPU, the highest it may
use, and BLAS and OpenMP on one thread, set through the environment of the
processes it starts; nothing else about the machine is changed.  Pass times
are reported in reference units (``wall_ref``, see reference.py) as well as
in seconds; the seconds go to the report line, because on a shared host they
drift with the neighbours' load more than any bound a regression check can
use.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170.0
RUN_DIR = ".perfbench_run"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "iterations": "count",
    "converged_share": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
PER_LAYER["trace.overhead_ratio"] = "ratio"


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def run_worker(argv: list[str], env: dict, deadline: float) -> str:
    """Run worker.py to the end within the deadline; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return proc.stdout


def time_setup(argv: list[str], env: dict, deadline: float) -> float:
    """Wall time of one fresh ``--setup-only`` worker, start to exit."""
    start = time.perf_counter()
    run_worker(argv + ["--setup-only"], env, deadline)
    return time.perf_counter() - start


def summarise(args, setup: list[float], result: dict) -> tuple[dict, dict, int, int]:
    """Metrics, report, commands attempted and commands failed."""
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    commands = len(workloads.workload(args.workload, args.size).commands)
    attempted = commands * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    invariants = {(p["digest"], p["iterations"], p["solves"], p["converged"])
                  for p in passes}
    if len(invariants) != 1:
        failures.append(f"passes disagree on outputs: {sorted(invariants)}")
    first = passes[0]
    walls = [p["wall_s"] for p in untraced]
    walls_ref = [p["wall_ref"] for p in untraced]
    if args.trace:
        # All layer figures come from one pass, the traced pass of median
        # wall time, so that they add up to its trace.wall_s.
        middle = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
        metrics = dict(middle["layers"])
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(walls))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(walls_ref),
            "iterations": first["iterations"],
            # A command that failed its check counts no solves.
            "converged_share": first["converged"] / max(first["solves"], 1),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    report = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "digest": first["digest"],
        "solves_per_pass": first["solves"],
        "unconverged_per_pass": first["solves"] - first["converged"],
        "wall_s": statistics.median(walls),
        "reference_s": statistics.median(r for p in untraced for r in p["reference_s"]),
        "setup_s_samples": setup,
        "wall_s_samples": walls,
        "wall_ref_samples": walls_ref,
        "traced_wall_s_samples": [p["wall_s"] for p in traced],
        "failures": failures,
        "absent": result.get("absent", []),
        "absent_targets": result.get("absent_targets", []),
        "environment": result["environment"],
    }
    shaped = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return shaped, report, attempted, len(failures)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the commands within each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'smoke' shrinks every workload for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparsefolio", "cli.py")):
        print(f"error: {root} is not a sparsefolio checkout (no src/sparsefolio)",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(THREADS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(root, RUN_DIR, tag)
    common = ["--workload", args.workload, "--size", args.size,
              "--seed", str(args.seed), "--workdir", workdir]
    try:
        # Half the set-up samples before the measuring process and half
        # after it, so that they span the run as the passes do.
        setup = [time_setup(common, env, deadline) for _ in range(SETUP_SAMPLES // 2)]
        stdout = run_worker(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], env, deadline)
        setup += [time_setup(common, env, deadline)
                  for _ in range(SETUP_SAMPLES - len(setup))]
        lines = stdout.splitlines()
        if not lines:
            raise BenchmarkError("worker printed no result")
        result = json.loads(lines[-1])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, report, attempted, failed = summarise(args, setup, result)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
