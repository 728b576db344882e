"""Print the median time per call of the fixed costs around a solve.

Run from the repository root with the package importable:
``PYTHONPATH=src python tools/fixed_costs.py``.  These are the costs a
command pays once, whatever its iteration count: building and using the
command-line parser, making the bench suites, estimating the moments and
checking the problem, and one iteration of each strategy.  The command lines
are those of the benchmark's full workloads (``perfbench/workloads.py``).

The process runs on one CPU, the highest it may use, and BLAS on one thread,
as the benchmark runs.  Each line is the median of ``SAMPLES`` timings, each
of as many calls as fill ``SAMPLE_S``.  A report, not a gate: the numbers
drift with the host's load.
"""

import os
import sys

# read when numpy loads its BLAS, so set before the first numpy import
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))

import statistics  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from sparsefolio.admm_engine import SolverConfig, solve  # noqa: E402
from sparsefolio.cli import build_parser  # noqa: E402
from sparsefolio.lambda_controller import LambdaSchedule  # noqa: E402
from sparsefolio.market_data import (estimate_stats,  # noqa: E402
                                     generate_synthetic_returns)
from sparsefolio.model import build_problem  # noqa: E402
from sparsefolio.penalty import PENALTY_KINDS, PenaltyConfig  # noqa: E402
from sparsefolio.suites import SUITES, make_suite_instances  # noqa: E402

SAMPLES = 11
SAMPLE_S = 0.02


def per_call_us(fn) -> float:
    """Median microseconds per call of fn, after one call to warm it."""
    fn()
    calls, started = 0, time.perf_counter()
    while time.perf_counter() - started < SAMPLE_S:
        fn()
        calls += 1
    samples = []
    for _ in range(SAMPLES):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return 1e6 * statistics.median(samples)


def moments_and_problem(returns):
    mu, C = estimate_stats(returns)
    return build_problem(mu, C, 0.5 * (float(mu.min()) + float(mu.max())))


def costs():
    """(name, zero-argument function) for each fixed cost reported."""
    yield "build_parser()", build_parser
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for command in workloads.workload(name).commands:
            argv = list(command.argv)
            yield f"parse_args {name}: {argv[0]} -o {command.output}", (
                lambda argv=argv: parser.parse_args(argv))
    for suite in SUITES:
        yield (f"make_suite_instances({suite!r}, 5, 0)",
               lambda suite=suite: make_suite_instances(suite, 5, 0))
    for n, m in ((10, 120), (500, 1000)):
        returns = generate_synthetic_returns(n, m, workloads.CSV_SEED)
        yield (f"estimate_stats + build_problem, n={n}",
               lambda returns=returns: moments_and_problem(returns))
    instance = make_suite_instances("random", 1, 0)[0]
    for kind in PENALTY_KINDS:
        cfg = SolverConfig(max_iter=1, penalty=PenaltyConfig(kind=kind),
                           lambda_schedule=LambdaSchedule.fixed(instance.lam))
        yield (f"solve(random, {kind}, max_iter=1)",
               lambda cfg=cfg: solve(instance.problem, cfg))


def main() -> None:
    print(f"{'fixed cost':60}{'us/call':>10}")
    for name, fn in costs():
        print(f"{name:60}{per_call_us(fn):10.1f}", flush=True)


if __name__ == "__main__":
    main()
