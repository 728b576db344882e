"""Workload definitions: the pinned inputs and the command list of one pass.

Every problem instance is pinned here rather than drawn from the run's
``--seed``.  The workloads exist to show known behaviour of the solver (the
``rbb`` stalls on ``illcond`` seed 0 and ``shorts`` seed 4, the adaptive-lambda
overshoot on the n=10 frontier), and ``iterations``, ``converged_share`` and
the output digest must repeat exactly from run to run.  The run's seed only
orders the commands inside each pass.
"""

from __future__ import annotations

from dataclasses import dataclass

# Generator seed of every returns CSV.  At seed 3 the n=10 guard frontier has
# 12 of 20 points at max_iter and the n=500 fixed-rho solve runs out of
# iterations, which is part of what the two workloads measure.
CSV_SEED = 3
BENCH_SUITES = ("random", "illcond", "shorts")
STRATEGIES = ("fixed", "rb", "bb", "rbb")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class ReturnsCsv:
    """A synthetic returns CSV the benchmark writes before the first command."""

    path: str
    assets: int
    periods: int
    seed: int = CSV_SEED


@dataclass(frozen=True)
class Command:
    """One ``sparsefolio`` command line, as passed to ``sparsefolio.cli.main``."""

    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        """Value of ``name`` in argv, or None when the flag is not given."""
        for i, token in enumerate(self.argv[:-1]):
            if token == name:
                return self.argv[i + 1]
        return None

    @property
    def output(self) -> str:
        return self.flag("-o")


@dataclass(frozen=True)
class Workload:
    name: str
    csvs: tuple[ReturnsCsv, ...]
    commands: tuple[Command, ...]


def _bench_n10(size: str) -> tuple[Command, ...]:
    trials = "5" if size == "full" else "2"
    return tuple(
        Command(("bench", "--suite", suite, "--trials", trials, "--seed", "0",
                 "--max-iter", "5000", "-o", f"bench-{suite}.csv"))
        for suite in BENCH_SUITES)


def _frontier_n10_guard(size: str) -> tuple[ReturnsCsv, Command]:
    points, max_iter = ("20", "5000") if size == "full" else ("3", "500")
    csv = ReturnsCsv("returns-n10.csv", 10, 120)
    command = Command(("frontier", "--input", csv.path, "--points", points,
                       "--strategy", "rbb", "--adaptive-lambda", "--sn", "0",
                       "--max-iter", max_iter, "-o", "frontier-n10.csv"))
    return csv, command


def _frontier_n200(size: str) -> tuple[ReturnsCsv, Command]:
    n, m, points = (200, 400, "20") if size == "full" else (40, 80, "3")
    csv = ReturnsCsv(f"returns-n{n}.csv", n, m)
    command = Command(("frontier", "--input", csv.path, "--points", points,
                       "--strategy", "rbb", "--max-iter", "5000",
                       "-o", f"frontier-n{n}.csv"))
    return csv, command


def _solve_n500(size: str) -> tuple[ReturnsCsv, tuple[Command, ...]]:
    n, m = (500, 1000) if size == "full" else (50, 100)
    csv = ReturnsCsv(f"returns-n{n}.csv", n, m)
    commands = tuple(
        Command(("solve", "--input", csv.path, "--strategy", strategy,
                 "--max-iter", "5000", "-o", f"solve-{strategy}.json"))
        for strategy in STRATEGIES)
    return csv, commands


def _loop_n10(size: str) -> Workload:
    """n=10 problems, where the interpreter's per-iteration overhead dominates.

    The bench suites hold the known rbb stalls (illcond seed 0 at 2112
    iterations, shorts seed 4 at max_iter); the adaptive-lambda frontier is
    the only caller of the lambda guard, and 12 of its 20 points hit max_iter.
    """
    csv, frontier = _frontier_n10_guard(size)
    return Workload("loop-n10", (csv,), _bench_n10(size) + (frontier,))


def _kkt_n200_n500(size: str) -> Workload:
    """n=200 and n=500 problems, where KKT factorisation and parsing dominate.

    The rbb frontier refactorises after every rho change, with one
    covariance for all its points; the solves parse a large CSV, and the
    fixed-rho one does one factorisation against 5000 x-steps.
    """
    frontier_csv, frontier = _frontier_n200(size)
    solve_csv, solves = _solve_n500(size)
    return Workload("kkt-n200-n500", (frontier_csv, solve_csv), (frontier,) + solves)


_BUILDERS = {
    "loop-n10": _loop_n10,
    "kkt-n200-n500": _kkt_n200_n500,
}
WORKLOADS = tuple(_BUILDERS)


def workload(name: str, size: str = "full") -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return _BUILDERS[name](size)


def synthetic_returns(n: int, m: int, seed: int):
    """Three-factor returns with exact column means drawn from [0.002, 0.018].

    The same draws, in the same order, as ``sparsefolio gen``, so the CSV is
    byte-identical to ``sparsefolio gen --assets n --periods m --seed seed``.
    It lives here so that a change to the package's generator cannot change
    the benchmark's inputs.
    """
    import numpy as np  # here, so run.py itself never loads numpy

    rng = np.random.default_rng(seed)
    means = rng.uniform(0.002, 0.018, size=n)
    loadings = rng.normal(0.0, 0.02, size=(n, 3))
    factors = rng.standard_normal((m, 3))
    noise = rng.normal(0.0, 0.01, size=(m, n))
    stochastic = factors @ loadings.T + noise
    return means + (stochastic - stochastic.mean(axis=0))


def write_returns_csv(spec: ReturnsCsv) -> None:
    # Row by row, so the benchmark's own memory peak stays far below the
    # program's when it parses the file.
    values = synthetic_returns(spec.assets, spec.periods, spec.seed)
    with open(spec.path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"A{i + 1}" for i in range(spec.assets)) + "\n")
        for row in values.tolist():
            handle.write(",".join(map(repr, row)) + "\n")
