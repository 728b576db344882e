"""Command-line front end: generate data, solve, sweep a frontier, benchmark.

Exit codes: 0 on success (solves must converge), 2 on usage or input
errors, 3 when the iteration budget runs out without convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time

import numpy as np

from .admm_engine import SolverConfig, solve
from .lambda_controller import LambdaSchedule, initial_lambda
from .market_data import (ReturnsFormatError, estimate_stats,
                          generate_synthetic_returns, load_returns_csv,
                          returns_to_csv)
from .model import ZERO_TOL, build_problem, count_short_positions
from .penalty import PENALTY_KINDS, PenaltyConfig
from .suites import SUITES, make_suite_instances

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# Shape of the JSON document emitted by `solve`; the history block appears
# only when --history is passed.  Kept importable so tests can validate.
RESULT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weights", "objective", "iterations", "termination",
                 "lambda_initial", "lambda_final", "rho_final", "short_count",
                 "config_echo"],
    "properties": {
        "weights": {"type": "array", "items": {"type": "number"}},
        "objective": {"type": "number"},
        "iterations": {"type": "integer", "minimum": 0},
        "termination": {"enum": ["converged", "max_iter", "numerical_failure"]},
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
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="relative residual tolerance (default: %(default)s)")
    parser.add_argument("--max-iter", type=int, default=5000,
                        help="iteration cap (default: %(default)s)")
    parser.add_argument("--rho0", type=float, default=1.0,
                        help="initial penalty parameter (default: %(default)s)")
    parser.add_argument("--q", type=float, default=1.0,
                        help="residual-ratio exponent for the rbb strategy "
                             "(default: %(default)s)")
    parser.add_argument("--nbar", type=int, default=2,
                        help="iterations between penalty updates (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
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
                     help="target portfolio return, or 'mid' for the midpoint "
                          "of the asset means (default: %(default)s)")
    _add_solver_flags(slv)
    slv.add_argument("--seed-independent", action="store_true",
                     help="accepted for pipeline symmetry; solving consults no "
                          "random source, so this changes nothing (default: off)")
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
    ben.add_argument("--tol", type=float, default=1e-6,
                     help="relative residual tolerance (default: %(default)s)")
    ben.add_argument("--max-iter", type=int, default=5000,
                     help="iteration cap (default: %(default)s)")
    ben.add_argument("-o", "--output", default="-",
                     help="results CSV path, '-' for stdout (default: %(default)s)")
    return parser


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _float_repr(value: float) -> str:
    return repr(float(value))


def _make_config(args, schedule: LambdaSchedule,
                 record_history: bool = False) -> SolverConfig:
    penalty = PenaltyConfig(kind=args.strategy, rho0=args.rho0, q=args.q,
                            nbar=args.nbar)
    return SolverConfig(tol=args.tol, max_iter=args.max_iter, penalty=penalty,
                        lambda_schedule=schedule, record_history=record_history)


def _make_schedule(args, periods: int, assets: int) -> LambdaSchedule:
    if args.lam == "auto":
        lam0 = initial_lambda(periods, assets)
    else:
        lam0 = float(args.lam)
        if lam0 < 0:
            raise ValueError(f"--lambda must be nonnegative, got {lam0}")
    if args.adaptive_lambda:
        if lam0 == 0:
            raise ValueError("--adaptive-lambda needs a positive --lambda")
        return LambdaSchedule.adaptive(lam0, sn=args.sn)
    return LambdaSchedule.fixed(lam0)


def _resolve_target(args, mu: np.ndarray) -> float:
    if args.target_return == "mid":
        return 0.5 * (float(mu.min()) + float(mu.max()))
    return float(args.target_return)


def cmd_gen(args) -> int:
    returns = generate_synthetic_returns(args.assets, args.periods, args.seed)
    _write_text(args.output, returns_to_csv(returns))
    return EXIT_OK


def cmd_solve(args) -> int:
    returns = load_returns_csv(args.input)
    stats = estimate_stats(returns)
    target = _resolve_target(args, stats.mu)
    problem = build_problem(stats, target)
    schedule = _make_schedule(args, returns.periods, returns.assets)
    cfg = _make_config(args, schedule, record_history=args.history)
    result = solve(problem, cfg)

    payload = {
        "weights": [float(w) for w in result.weights.weights],
        "objective": result.objective,
        "iterations": result.iterations,
        "termination": result.termination,
        "lambda_initial": result.lambda_initial,
        "lambda_final": result.lambda_final,
        "rho_final": result.rho_final,
        "short_count": result.short_count,
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
            "nbar": args.nbar,
            "seed_independent": args.seed_independent,
        },
    }
    if args.history:
        history = result.history
        payload["history"] = {
            "r_norm": list(history.r_norm),
            "d_norm": list(history.d_norm),
            "rho": list(history.rho),
            "lambda": list(history.lam),
        }
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if result.termination == "converged" else EXIT_NO_CONVERGENCE


def cmd_frontier(args) -> int:
    returns = load_returns_csv(args.input)
    stats = estimate_stats(returns)
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    e_min = float(stats.mu.min()) if args.e_min is None else args.e_min
    e_max = float(stats.mu.max()) if args.e_max is None else args.e_max
    for flag, value in (("--e-min", e_min), ("--e-max", e_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if e_min > e_max:
        raise ValueError(f"--e-min {e_min} exceeds --e-max {e_max}")
    targets = np.linspace(e_min, e_max, args.points)
    schedule = _make_schedule(args, returns.periods, returns.assets)
    cfg = _make_config(args, schedule)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["e", "risk", "l1_norm", "nonzeros", "shorts",
                     "iterations", "status"])
    any_converged = False
    for target in targets:
        problem = build_problem(stats, float(target), allow_out_of_range=True)
        result = solve(problem, cfg)
        w = result.weights.weights
        writer.writerow([
            _float_repr(target),
            _float_repr(w @ problem.C @ w),
            _float_repr(np.abs(w).sum()),
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
                             _float_repr(result.r_norm),
                             _float_repr(result.d_norm),
                             f"{elapsed:.6f}"])
        medians.append((strategy, statistics.median(counts)))
    for strategy, median_iter in medians:
        writer.writerow([args.suite, strategy, "median",
                         _float_repr(median_iter), "", "", ""])
    _write_text(args.output, buffer.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    handlers = {"gen": cmd_gen, "solve": cmd_solve, "frontier": cmd_frontier,
                "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (ReturnsFormatError, FileNotFoundError, IsADirectoryError,
            PermissionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
