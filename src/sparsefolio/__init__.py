"""Sparse mean-variance portfolio selection via ADMM.

Minimizes (1/2) x'Cx + lam*||x||_1 over weights hitting a target return
and summing to one, with adaptive penalty-parameter strategies and an
optional short-sale controller that escalates the L1 weight.
"""

from .admm_engine import (IterateState, SolveHistory, SolveResult,
                          SolverConfig, soft_threshold, solve)
from .lambda_controller import LambdaSchedule, initial_lambda, maybe_adjust
from .market_data import (AssetStats, ReturnsFormatError, ReturnsMatrix,
                          estimate_stats, generate_synthetic_returns,
                          load_returns_csv, returns_to_csv, write_returns_csv)
from .model import (Portfolio, PortfolioProblem, build_problem,
                    constraint_violation, count_short_positions,
                    evaluate_objective)
from .oracle import InfeasibleTargetError, OracleResult, check_kkt, enumerate_solve
from .penalty import PenaltyConfig, rb_update, spectral_rho

__version__ = "0.1.0"

__all__ = [
    "AssetStats",
    "IterateState",
    "InfeasibleTargetError",
    "LambdaSchedule",
    "OracleResult",
    "PenaltyConfig",
    "Portfolio",
    "PortfolioProblem",
    "ReturnsFormatError",
    "ReturnsMatrix",
    "SolveHistory",
    "SolveResult",
    "SolverConfig",
    "build_problem",
    "check_kkt",
    "constraint_violation",
    "count_short_positions",
    "enumerate_solve",
    "estimate_stats",
    "evaluate_objective",
    "generate_synthetic_returns",
    "initial_lambda",
    "load_returns_csv",
    "maybe_adjust",
    "rb_update",
    "returns_to_csv",
    "soft_threshold",
    "solve",
    "spectral_rho",
    "write_returns_csv",
    "__version__",
]
