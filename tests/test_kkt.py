import numpy as np
import pytest

from conftest import factor_problem, identity_problem, two_asset_problem
from sparsefolio.kkt import factorize, solve_with_multiplier, solve_x_update
from sparsefolio.model import PortfolioProblem


def random_problem(n, rng, scale=1.0):
    A = rng.standard_normal((n, n))
    C = scale * (A @ A.T + n * np.eye(n))
    mu = rng.uniform(0.01, 0.05, size=n)
    return PortfolioProblem(C=C, mu=mu, e=0.5 * (mu.min() + mu.max()))


def kkt_residuals(problem, rho, z, y, x, nu):
    top = (problem.C + rho * np.eye(problem.n)) @ x + problem.D.T @ nu \
        - (rho * z + y)
    bottom = problem.D @ x - problem.b
    return float(np.abs(top).max()), float(np.abs(bottom).max())


class TestFactorize:
    def test_identity_covariance(self):
        problem = two_asset_problem()
        fact = factorize(problem, 1.0)
        assert fact.rho == 1.0
        assert fact.n == 2
        np.testing.assert_array_equal(fact.b, problem.b)

    def test_nonpositive_rho_rejected(self):
        problem = two_asset_problem()
        with pytest.raises(ValueError, match="rho"):
            factorize(problem, 0.0)

    def test_equal_constraint_rows_singular(self):
        # mu identical to the budget row makes D rank 1; the problem is
        # refused when built, so factorize never sees a singular system
        n = 3
        with pytest.raises(ValueError, match="degenerate"):
            factorize(PortfolioProblem(C=np.eye(n), mu=np.ones(n), e=1.0), 1.0)

    def test_repeat_factorization_identical_solves(self, rng):
        problem = random_problem(6, rng)
        z = rng.standard_normal(6)
        y = rng.standard_normal(6)
        x1 = solve_x_update(factorize(problem, 2.0), z, y)
        x2 = solve_x_update(factorize(problem, 2.0), z, y)
        np.testing.assert_array_equal(x1, x2)


class TestSolveWithMultiplier:
    def test_two_assets_fully_constrained(self, rng):
        problem = two_asset_problem(e=0.15)
        for rho in (0.5, 1.0, 10.0):
            fact = factorize(problem, rho)
            for _ in range(3):
                z = rng.standard_normal(2)
                y = rng.standard_normal(2)
                x, _ = solve_with_multiplier(fact, z, y)
                np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_symmetric_three_asset_case(self):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        fact = factorize(problem, 1.0)
        x, _ = solve_with_multiplier(fact, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(x, np.ones(3) / 3, atol=1e-14)

    def test_block_equations_hold(self, rng):
        problem = random_problem(8, rng)
        for rho in (0.3, 1.0, 7.5):
            fact = factorize(problem, rho)
            z = rng.standard_normal(8)
            y = rng.standard_normal(8)
            x, nu = solve_with_multiplier(fact, z, y)
            stationarity, feasibility = kkt_residuals(problem, rho, z, y, x, nu)
            assert stationarity <= 1e-10
            assert feasibility <= 1e-10

    def test_feasibility_at_extreme_rho(self, rng):
        # tiny covariance entries with rho at the clip bounds used to trip
        # a false singularity alarm; the x-step must stay exactly feasible
        problem = factor_problem(n=6, m=60, seed=3)
        for rho in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            fact = factorize(problem, rho)
            z = rng.standard_normal(6)
            y = rng.standard_normal(6)
            x, _ = solve_with_multiplier(fact, z, y)
            assert np.abs(problem.D @ x - problem.b).max() <= 1e-10

    def test_matches_dense_solver_large_n(self, rng):
        problem = random_problem(50, rng)
        rho = 1.7
        fact = factorize(problem, rho)
        z = rng.standard_normal(50)
        y = rng.standard_normal(50)
        x, nu = solve_with_multiplier(fact, z, y)
        K = np.zeros((52, 52))
        K[:50, :50] = problem.C + rho * np.eye(50)
        K[:50, 50:] = problem.D.T
        K[50:, :50] = problem.D
        expected = np.linalg.solve(K, np.concatenate([rho * z + y, problem.b]))
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(np.concatenate([x, nu]) - expected).max() / scale <= 1e-10


class TestSolveXUpdate:
    def test_returns_weights_only(self, rng):
        problem = random_problem(5, rng)
        fact = factorize(problem, 1.0)
        x = solve_x_update(fact, np.zeros(5), np.zeros(5))
        assert x.shape == (5,)
