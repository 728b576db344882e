"""Correctness checks on each command's output, plus the determinism digest.

Every check recomputes what it can from the inputs instead of trusting the
program: the objective and both equality constraints come from the returns
CSV, and bench medians come from the bench's own trial rows.  A check that
fails raises ``CheckFailed``; the caller counts the command as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from workloads import Command

TERMINATIONS = ("converged", "max_iter", "numerical_failure")
EXIT_OK, EXIT_NO_CONVERGENCE = 0, 3
FEASIBILITY_TOL = 1e-8
OBJECTIVE_RTOL = 1e-9


class CheckFailed(Exception):
    """A command's output or exit code is wrong."""


@dataclass
class Outcome:
    """What one command produced: solve counts and the bytes to digest."""

    solves: int = 0
    converged: int = 0
    iterations: int = 0
    digest_bytes: bytes = b""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@lru_cache(maxsize=None)
def _moments(path: str) -> tuple[np.ndarray, np.ndarray]:
    # Parsed once per process; the benchmark never rewrites its inputs.
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    C = np.cov(values, rowvar=False, ddof=1)
    return values.mean(axis=0), 0.5 * (C + C.T)


@lru_cache(maxsize=None)
def _result_validator():
    import jsonschema
    import sparsefolio.cli

    return jsonschema.Draft202012Validator(sparsefolio.cli.RESULT_SCHEMA)


def check_solve(cmd: Command, rc: int, text: str) -> Outcome:
    doc = json.loads(text)
    errors = sorted(_result_validator().iter_errors(doc), key=str)
    _require(not errors, f"solve JSON fails RESULT_SCHEMA: {errors[:1]}")
    termination = doc["termination"]
    expected_rc = EXIT_OK if termination == "converged" else EXIT_NO_CONVERGENCE
    _require(rc == expected_rc,
             f"exit code {rc} for termination {termination!r}")
    mu, C = _moments(cmd.flag("--input"))
    x = np.asarray(doc["weights"], dtype=float)
    _require(x.shape == mu.shape, f"{x.size} weights for {mu.size} assets")
    target = 0.5 * (float(mu.min()) + float(mu.max()))
    _require(abs(float(mu @ x) - target) <= FEASIBILITY_TOL,
             f"mu'x = {float(mu @ x)!r} misses the target {target!r}")
    _require(abs(float(x.sum()) - 1.0) <= FEASIBILITY_TOL,
             f"1'x = {float(x.sum())!r}")
    objective = 0.5 * float(x @ C @ x) + doc["lambda_final"] * float(np.abs(x).sum())
    _require(abs(doc["objective"] - objective) <= OBJECTIVE_RTOL * abs(objective),
             f"objective {doc['objective']!r} != recomputed {objective!r}")
    max_iter = int(cmd.flag("--max-iter"))
    _require(doc["iterations"] <= max_iter, f"{doc['iterations']} > --max-iter")
    return Outcome(1, int(termination == "converged"), doc["iterations"],
                   text.encode())


def check_frontier(cmd: Command, rc: int, text: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    points, max_iter = int(cmd.flag("--points")), int(cmd.flag("--max-iter"))
    _require(len(rows) == points, f"{len(rows)} frontier rows for {points} points")
    targets = [float(row["e"]) for row in rows]
    _require(all(a < b for a, b in zip(targets, targets[1:])),
             "frontier targets are not ascending")
    statuses = [row["status"] for row in rows]
    _require(all(s in TERMINATIONS for s in statuses),
             f"unknown status in {sorted(set(statuses))}")
    iterations = [int(row["iterations"]) for row in rows]
    _require(max(iterations) <= max_iter, f"{max(iterations)} > --max-iter")
    converged = statuses.count("converged")
    _require(rc == (EXIT_OK if converged else EXIT_NO_CONVERGENCE),
             f"exit code {rc} with {converged} converged points")
    return Outcome(points, converged, sum(iterations), text.encode())


def check_bench(cmd: Command, rc: int, text: str) -> Outcome:
    """Rows sorted by (suite, strategy, trial), then one median row per strategy.

    The bench CSV has no termination column, so a solve is counted as
    unconverged when it used the whole iteration budget; a numerical failure
    stops earlier and would be counted as converged.
    """
    _require(rc == EXIT_OK, f"bench exit code {rc}")
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    suite, trials = cmd.flag("--suite"), int(cmd.flag("--trials"))
    max_iter = int(cmd.flag("--max-iter"))
    _require(header[-1] == "wall_time_s", f"unexpected bench header {header}")
    _require(all(row[0] == suite for row in body), "rows of another suite")
    trial_rows = [row for row in body if row[2] != "median"]
    median_rows = [row for row in body if row[2] == "median"]
    _require(body == trial_rows + median_rows, "median rows are not last")
    keys = [(row[1], int(row[2])) for row in trial_rows]
    strategies = sorted({strategy for strategy, _ in keys})
    _require(keys == [(s, t) for s in strategies for t in range(trials)],
             "trial rows are not sorted by (strategy, trial) or are missing")
    _require([row[1] for row in median_rows] == strategies,
             "median rows do not follow the strategy order")
    counts = [int(row[3]) for row in trial_rows]
    _require(max(counts) <= max_iter, f"{max(counts)} > --max-iter")
    for row in median_rows:
        expected = statistics.median(int(r[3]) for r in trial_rows if r[1] == row[1])
        _require(float(row[3]) == expected,
                 f"{row[1]} median {row[3]} != median of trials {expected}")
    # wall_time_s is the only column that may differ between runs.
    stable = "\n".join(",".join(row[:-1]) for row in rows)
    return Outcome(len(counts), sum(c < max_iter for c in counts), sum(counts),
                   stable.encode())


CHECKS = {"solve": check_solve, "frontier": check_frontier, "bench": check_bench}


def check_command(cmd: Command, rc: int) -> Outcome:
    """Check one finished command against the output file it wrote."""
    try:
        with open(cmd.output, encoding="utf-8") as handle:
            text = handle.read()
        return CHECKS[cmd.kind](cmd, rc, text)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from exc


def digest(commands, outcomes) -> str:
    """sha256 over every command line, in workload order, with its exit code
    and its output bytes."""
    sha = hashlib.sha256()
    for cmd, (rc, outcome) in zip(commands, outcomes):
        sha.update(" ".join(cmd.argv).encode() + b"\0")
        sha.update(str(rc).encode() + b"\0")
        sha.update(outcome.digest_bytes + b"\0")
    return sha.hexdigest()
