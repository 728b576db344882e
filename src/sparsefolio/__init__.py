"""Sparse mean-variance portfolio selection via ADMM.

Minimizes (1/2) x'Cx + lam*||x||_1 over weights hitting a target return
and summing to one, with adaptive penalty-parameter strategies and an
optional short-sale controller that escalates the L1 weight.
"""

from .admm_engine import IterateState, SolveResult, SolverConfig, solve
from .lambda_controller import LambdaSchedule, initial_lambda
from .market_data import (ReturnsFormatError, ReturnsMatrix, estimate_stats,
                          generate_synthetic_returns, load_returns_csv,
                          returns_to_csv)
from .model import PortfolioProblem, build_problem, count_short_positions
from .penalty import PenaltyConfig

__version__ = "0.1.0"

__all__ = [
    "IterateState",
    "LambdaSchedule",
    "PenaltyConfig",
    "PortfolioProblem",
    "ReturnsFormatError",
    "ReturnsMatrix",
    "SolveResult",
    "SolverConfig",
    "build_problem",
    "count_short_positions",
    "estimate_stats",
    "generate_synthetic_returns",
    "initial_lambda",
    "load_returns_csv",
    "returns_to_csv",
    "solve",
    "__version__",
]
