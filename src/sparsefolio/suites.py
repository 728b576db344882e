"""Canned problem families for benchmarking and robustness testing."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lambda_controller import initial_lambda
from .market_data import estimate_stats, generate_synthetic_returns
from .model import PortfolioProblem, build_problem

SUITES = ("random", "illcond", "shorts")
SUITE_ASSETS = 10
SUITE_PERIODS = 120
ILLCOND_CONDITION = 1e6


class SuiteInstance(NamedTuple):
    problem: PortfolioProblem
    lam: float


def _midpoint(mu: np.ndarray) -> float:
    return 0.5 * (float(mu.min()) + float(mu.max()))


def _random_instance(seed: int) -> SuiteInstance:
    returns = generate_synthetic_returns(SUITE_ASSETS, SUITE_PERIODS, seed)
    mu, C = estimate_stats(returns)
    problem = build_problem(mu, C, _midpoint(mu))
    return SuiteInstance(problem, initial_lambda(SUITE_PERIODS, SUITE_ASSETS))


def _illcond_instance(seed: int) -> SuiteInstance:
    # Spectrum spans exactly ILLCOND_CONDITION; basis is a random rotation.
    n = SUITE_ASSETS
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    top = 0.1
    eigenvalues = np.logspace(np.log10(top) - np.log10(ILLCOND_CONDITION),
                              np.log10(top), n)
    C = (basis * eigenvalues) @ basis.T
    mu = rng.uniform(0.005, 0.02, size=n)
    problem = build_problem(mu, C, _midpoint(mu))
    return SuiteInstance(problem, initial_lambda(SUITE_PERIODS, n))


def _shorts_instance(seed: int) -> SuiteInstance:
    # Target near the top of the attainable range forces leveraged optima.
    returns = generate_synthetic_returns(SUITE_ASSETS, SUITE_PERIODS, seed)
    mu, C = estimate_stats(returns)
    e = float(mu.min()) + 0.9 * (float(mu.max()) - float(mu.min()))
    problem = build_problem(mu, C, e)
    return SuiteInstance(problem, 10.0 * initial_lambda(SUITE_PERIODS, SUITE_ASSETS))


_BUILDERS = {
    "random": _random_instance,
    "illcond": _illcond_instance,
    "shorts": _shorts_instance,
}


def make_suite_instances(suite: str, trials: int, seed: int) -> list[SuiteInstance]:
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    builder = _BUILDERS[suite]
    return [builder(seed + trial) for trial in range(trials)]
