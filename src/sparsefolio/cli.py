"""Command-line front end: generate data, solve, sweep a frontier, benchmark.

Exit codes: 0 on success (the solve converged, or at least one frontier
point did), 2 on usage or input errors, 3 when the iteration budget runs
out without convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import statistics
import sys
import time

import numpy as np

from . import admm_engine
from .admm_engine import SolverConfig, solve
from .lambda_controller import LambdaSchedule, initial_lambda
from .market_data import (estimate_stats, generate_synthetic_returns,
                          load_returns_csv, returns_to_csv)
from .model import ZERO_TOL, build_problem, count_short_positions
from .penalty import PENALTY_KINDS, PenaltyConfig, initial_rho
from .suites import SUITES, make_suite_instances

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# Shape of the JSON document emitted by `solve`; certified says whether a KKT
# certificate ended the last run, which makes the weights its exact optimum.
# The history block appears only when --history is passed, and holds one
# entry per iteration, of every adaptive-lambda run in order: its residual
# norms and the rho and lambda it ran with.  Kept importable so tests can
# validate.
RESULT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weights", "objective", "iterations", "termination",
                 "certified", "lambda_initial", "lambda_final", "rho_final",
                 "short_count", "config_echo"],
    "properties": {
        "weights": {"type": "array", "items": {"type": "number"}},
        "objective": {"type": "number"},
        "iterations": {"type": "integer", "minimum": 0},
        "termination": {"enum": ["converged", "max_iter", "numerical_failure"]},
        "certified": {"type": "boolean"},
        "lambda_initial": {"type": "number", "minimum": 0},
        "lambda_final": {"type": "number", "minimum": 0},
        "rho_final": {"type": "number", "exclusiveMinimum": 0},
        "short_count": {"type": "integer", "minimum": 0},
        "config_echo": {"type": "object"},
        "history": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r_norm", "d_norm", "rho", "lambda"],
            "properties": {
                "r_norm": {"type": "array", "items": {"type": "number"}},
                "d_norm": {"type": "array", "items": {"type": "number"}},
                "rho": {"type": "array", "items": {"type": "number"}},
                "lambda": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
}


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=PENALTY_KINDS, default="rbb",
                        help="penalty update strategy (default: %(default)s)")
    parser.add_argument("--lambda", dest="lam", default="auto",
                        help="L1 weight, or 'auto' for 1/(periods*assets) "
                             "(default: %(default)s)")
    parser.add_argument("--adaptive-lambda", action="store_true",
                        help="escalate the L1 weight until at most --sn short "
                             "positions remain (default: off)")
    parser.add_argument("--sn", type=int, default=0,
                        help="short positions tolerated in adaptive mode "
                             "(default: %(default)s)")
    parser.add_argument("--rho0", type=float, default=None,
                        help="initial penalty parameter (default: "
                             "sqrt(min*max eigenvalue of the covariance) for "
                             "fixed and rb, 1 for bb and rbb)")
    parser.add_argument("--q", type=float, default=1.0,
                        help="residual-ratio exponent for the rbb strategy "
                             "(default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the four subcommands, built on every call."""
    parser = argparse.ArgumentParser(
        prog="sparsefolio",
        description="L1-regularized mean-variance portfolios via ADMM")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic returns CSV")
    gen.add_argument("--assets", type=int, default=10,
                     help="number of assets (default: %(default)s)")
    gen.add_argument("--periods", type=int, default=200,
                     help="number of observation periods (default: %(default)s)")
    gen.add_argument("--seed", type=int, default=0,
                     help="generator seed (default: %(default)s)")
    gen.add_argument("-o", "--output", default="-",
                     help="output path, '-' for stdout (default: %(default)s)")

    slv = sub.add_parser("solve", help="solve one portfolio selection problem")
    slv.add_argument("--input", required=True, help="returns CSV to load")
    slv.add_argument("--target-return", default="mid",
                     help="target portfolio return between the smallest and "
                          "largest asset mean, or 'mid' for their midpoint "
                          "(default: %(default)s)")
    _add_solver_flags(slv)
    slv.add_argument("--history", action="store_true",
                     help="include per-iteration residual/rho/lambda arrays "
                          "(default: off)")
    slv.add_argument("-o", "--output", default="-",
                     help="result JSON path, '-' for stdout (default: %(default)s)")

    frn = sub.add_parser("frontier", help="sweep target returns, write CSV")
    frn.add_argument("--input", required=True, help="returns CSV to load")
    frn.add_argument("--points", type=int, default=20,
                     help="number of targets to sweep (default: %(default)s)")
    frn.add_argument("--e-min", type=float, default=None,
                     help="lowest target return (default: smallest asset mean)")
    frn.add_argument("--e-max", type=float, default=None,
                     help="highest target return (default: largest asset mean)")
    _add_solver_flags(frn)
    frn.add_argument("-o", "--output", default="-",
                     help="frontier CSV path, '-' for stdout (default: %(default)s)")

    ben = sub.add_parser("bench", help="time all strategies on a problem suite")
    ben.add_argument("--suite", choices=SUITES, default="random",
                     help="problem family (default: %(default)s)")
    ben.add_argument("--trials", type=int, default=3,
                     help="instances per suite (default: %(default)s)")
    ben.add_argument("--seed", type=int, default=0,
                     help="suite seed (default: %(default)s)")
    ben.add_argument("-o", "--output", default="-",
                     help="results CSV path, '-' for stdout (default: %(default)s)")
    for command in (slv, frn, ben):
        command.add_argument("--tol", type=float, default=1e-6,
                             help="relative residual tolerance (default: %(default)s)")
        command.add_argument("--max-iter", type=int, default=5000,
                             help="iteration cap (default: %(default)s)")
    return parser


# The parser keeps no state between parse_args calls: each fills a fresh
# Namespace.  So one tree serves every main call of the process.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _make_config(args, periods: int, assets: int) -> SolverConfig:
    if args.sn < 0:
        raise ValueError(f"--sn must be nonnegative, got {args.sn}")
    if args.lam == "auto":
        lam0 = initial_lambda(periods, assets)
    else:
        lam0 = float(args.lam)
    if args.adaptive_lambda:
        schedule = LambdaSchedule.adaptive(lam0, sn=args.sn)
    else:
        schedule = LambdaSchedule.fixed(lam0)
    penalty = PenaltyConfig(kind=args.strategy, rho0=args.rho0, q=args.q)
    return SolverConfig(tol=args.tol, max_iter=args.max_iter, penalty=penalty,
                        lambda_schedule=schedule)


def _resolve_target(args, mu: np.ndarray) -> float:
    if args.target_return == "mid":
        return 0.5 * (float(mu.min()) + float(mu.max()))
    target = float(args.target_return)
    if not mu.min() <= target <= mu.max():
        raise ValueError(f"target return {target} outside the attainable mean "
                         f"range [{mu.min()}, {mu.max()}]")
    return target


def cmd_gen(args) -> int:
    returns = generate_synthetic_returns(args.assets, args.periods, args.seed)
    _write_text(args.output, returns_to_csv(returns))
    return EXIT_OK


def cmd_solve(args) -> int:
    returns = load_returns_csv(args.input)
    mu, C = estimate_stats(returns)
    target = _resolve_target(args, mu)
    problem = build_problem(mu, C, target)
    cfg = _make_config(args, returns.periods, returns.assets)
    del returns  # the solve needs only the moments; free the sample first
    history = {"r_norm": [], "d_norm": [], "rho": [], "lambda": []}

    def record(state) -> None:
        history["r_norm"].append(state.r_norm)
        history["d_norm"].append(state.d_norm)
        history["rho"].append(state.rho)
        history["lambda"].append(state.lam)

    result = solve(problem, cfg, callback=record if args.history else None)

    payload = {
        "weights": [float(w) for w in result.weights],
        "objective": result.objective,
        "iterations": result.iterations,
        "termination": result.termination,
        "certified": result.certified,
        "lambda_initial": cfg.lambda_schedule.lambda_current,
        "lambda_final": result.lambda_final,
        "rho_final": result.rho_final,
        "short_count": count_short_positions(result.weights),
        "config_echo": {
            "input": args.input,
            "target_return": target,
            "strategy": args.strategy,
            "lambda": args.lam,
            "adaptive_lambda": args.adaptive_lambda,
            "sn": args.sn,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "rho0": args.rho0,
            "q": args.q,
        },
    }
    if args.history:
        payload["history"] = history
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if result.termination == "converged" else EXIT_NO_CONVERGENCE


def cmd_frontier(args) -> int:
    returns = load_returns_csv(args.input)
    mu, C = estimate_stats(returns)
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    e_min = float(mu.min()) if args.e_min is None else args.e_min
    e_max = float(mu.max()) if args.e_max is None else args.e_max
    for flag, value in (("--e-min", e_min), ("--e-max", e_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if e_min > e_max:
        raise ValueError(f"--e-min {e_min} exceeds --e-max {e_max}")
    if not math.isfinite(e_max - e_min):
        raise ValueError(f"--e-max {e_max} minus --e-min {e_min} overflows; "
                         f"narrow the range")
    targets = np.linspace(e_min, e_max, args.points)
    cfg = _make_config(args, returns.periods, returns.assets)
    del returns  # the solves need only the moments; free the sample first

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["e", "risk", "l1_norm", "nonzeros", "shorts",
                     "iterations", "status"])
    any_converged = False
    # one check of the moments and one rho0 LU, the engine's, for all targets
    problem = build_problem(mu, C, float(targets[0]))
    start = admm_engine.factorize(problem, initial_rho(cfg.penalty, problem.C))
    for target in targets:
        result = solve(problem.at(float(target)), cfg, start=start)
        w = result.weights
        writer.writerow([
            repr(float(target)),
            repr(float(w @ problem.C @ w)),
            repr(float(np.abs(w).sum())),
            int(np.sum(np.abs(w) > ZERO_TOL)),
            count_short_positions(w),
            result.iterations,
            result.termination,
        ])
        any_converged = any_converged or result.termination == "converged"
    _write_text(args.output, buffer.getvalue())
    return EXIT_OK if any_converged else EXIT_NO_CONVERGENCE


def cmd_bench(args) -> int:
    instances = make_suite_instances(args.suite, args.trials, args.seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "strategy", "trial", "iterations", "r_norm",
                     "d_norm", "wall_time_s"])
    medians = []
    # rows are contractually sorted by (suite, strategy, trial)
    for strategy in sorted(PENALTY_KINDS):
        counts = []
        for trial, instance in enumerate(instances):
            cfg = SolverConfig(
                tol=args.tol, max_iter=args.max_iter,
                penalty=PenaltyConfig(kind=strategy),
                lambda_schedule=LambdaSchedule.fixed(instance.lam))
            started = time.perf_counter()
            result = solve(instance.problem, cfg)
            elapsed = time.perf_counter() - started
            counts.append(result.iterations)
            writer.writerow([args.suite, strategy, trial, result.iterations,
                             repr(float(result.final_state.r_norm)),
                             repr(float(result.final_state.d_norm)),
                             f"{elapsed:.6f}"])
        medians.append((strategy, statistics.median(counts)))
    for strategy, median_iter in medians:
        writer.writerow([args.suite, strategy, "median",
                         repr(float(median_iter)), "", "", ""])
    _write_text(args.output, buffer.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command line and return its exit code; never raises SystemExit.

    It may be called any number of times in one process.  Every call parses
    with the same parser, built on the first call; ``build_parser()`` builds
    a new one each time it is called.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    handlers = {"gen": cmd_gen, "solve": cmd_solve, "frontier": cmd_frontier,
                "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    # ReturnsFormatError is a ValueError; MemoryError, a size numpy refuses
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
