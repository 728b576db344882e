"""One workload process: set up, run passes of the command list, check them.

Started by run.py with the thread variables already pinned and ``src`` on
PYTHONPATH.  With ``--setup-only`` it imports the package, writes the inputs
and exits at once, skipping interpreter teardown, so that run.py can time
set-up from start to exit.  Otherwise its last stdout line is the result as
one JSON object; with ``--trace 1`` it also writes the spans of its traced
passes to ``<workdir>.trace.json``.  Commands run in a closed loop: each
starts after the previous one returned, through ``sparsefolio.cli.main`` in
this process.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401
import sparsefolio  # noqa: E402
import sparsefolio.cli as cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "sparsefolio": sparsefolio.__version__,
    }


def run_pass(work: workloads.Workload, order: list[int], referenced: bool) -> dict:
    """Run every command once in ``order``; only the commands are timed.

    When ``referenced``, the reference kernel runs before the first command
    and after each one, and every command's time is also divided by the
    mean of the two samples around it (``wall_ref``, in reference units).
    """
    for cmd in work.commands:
        if os.path.exists(cmd.output):
            os.remove(cmd.output)
    codes = [None] * len(work.commands)
    wall = wall_ref = 0.0
    samples = [reference.run()] if referenced else []
    for i in order:
        argv = list(work.commands[i].argv)
        start = time.perf_counter()
        try:
            codes[i] = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        wall += elapsed
        if referenced:
            samples.append(reference.run())
            wall_ref += elapsed / ((samples[-2] + samples[-1]) / 2)

    failures, outcomes = [], []
    for cmd, rc in zip(work.commands, codes):
        outcome = checks.Outcome()
        if rc is None:
            failures.append(f"{' '.join(cmd.argv)}: raised")
        else:
            try:
                outcome = checks.check_command(cmd, rc)
            except checks.CheckFailed as exc:
                failures.append(f"{' '.join(cmd.argv)}: {exc}")
        outcomes.append(outcome)
    return {
        "wall_s": wall,
        "wall_ref": wall_ref,
        "reference_s": samples,
        "solves": sum(o.solves for o in outcomes),
        "converged": sum(o.converged for o in outcomes),
        "iterations": sum(o.iterations for o in outcomes),
        "failures": failures,
        "digest": checks.digest(work.commands, zip(codes, outcomes)),
    }


def measure(work: workloads.Workload, args) -> dict:
    """Closed loop of passes until ``--seconds`` is used up, at least one.

    The seed only shuffles the order of the commands within each pass.
    Untraced passes carry reference samples (see run_pass); the kernel runs
    a few times first, so that its own first-call costs are not sampled.

    With tracing, passes alternate untraced and traced, so the pair gives
    the tracing overhead from the same process and the same warm state.
    """
    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    count = len(work.commands)
    deadline = time.perf_counter() + args.seconds
    passes, spans = [], []
    for _ in range(3):
        reference.run()
    while True:
        started = time.perf_counter()
        passes.append(dict(run_pass(work, rng.sample(range(count), count), True),
                           traced=False))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                record = run_pass(work, rng.sample(range(count), count), False)
            finally:
                tracer.uninstall()
            record.update(traced=True,
                          layers=tracing.layer_metrics(tracer, record))
            passes.append(record)
            spans.append(tracer.records)
        elapsed = time.perf_counter() - started
        if time.perf_counter() + elapsed > deadline:
            break
    result = {"passes": passes}
    if tracer is not None:
        result["absent"] = tracing.absent_metrics(tracer)
        result["absent_targets"] = tracer.absent
        # Next to the work directory, which run.py removes after the run.
        with open(args.workdir + ".trace.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": work.name, "seed": args.seed,
                       "passes": spans}, handle)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    package_dir = os.path.dirname(os.path.abspath(sparsefolio.__file__))
    if package_dir != os.path.join(root, "src", "sparsefolio"):
        print(f"error: imported sparsefolio from {package_dir}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    work = workloads.workload(args.workload, args.size)
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    for spec in work.csvs:
        workloads.write_returns_csv(spec)
    if args.setup_only:
        sys.stdout.flush()
        os._exit(0)
    result = measure(work, args)
    result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
