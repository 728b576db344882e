"""Shared builders for the test suite."""
import numpy as np
import pytest

from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import PortfolioProblem, build_problem


def factor_problem(n=6, m=60, seed=0, noise_scale=0.01, e=None):
    """Factor-model instance with e defaulting to the middle of the mean range."""
    returns = generate_synthetic_returns(n, m, seed=seed, noise_scale=noise_scale)
    mu, C = estimate_stats(returns)
    if e is None:
        e = 0.5 * (mu.min() + mu.max())
    return build_problem(mu, C, float(e))


def identity_problem(mu=(0.1, 0.2, 0.3), e=0.2):
    """C = I with hand-picked means; symmetric cases have known solutions."""
    mu = np.asarray(mu, dtype=float)
    return build_problem(mu, np.eye(len(mu)), e)


def two_asset_problem(e=0.15):
    """n=2 with both constraints active: the weights are fully determined."""
    return build_problem(np.array([0.1, 0.2]),
                         np.array([[0.04, 0.01], [0.01, 0.09]]), e)


def mean_diag_rho(problem):
    return float(np.mean(np.diag(problem.C)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
