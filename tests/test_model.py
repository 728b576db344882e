import numpy as np
import pytest

from conftest import factor_problem, identity_problem
from sparsefolio.market_data import AssetStats
from sparsefolio.model import (
    ZERO_TOL,
    Portfolio,
    PortfolioProblem,
    build_problem,
    constraint_violation,
    count_short_positions,
    evaluate_objective,
    objective_value,
)
from sparsefolio.oracle import enumerate_solve


class TestBuildProblem:
    def test_direct_stacking(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]), C=np.eye(2))
        problem = build_problem(stats, 0.15)
        np.testing.assert_array_equal(problem.D, [[0.1, 0.2], [1.0, 1.0]])
        np.testing.assert_array_equal(problem.b, [0.15, 1.0])
        assert problem.n == 2
        assert problem.e == 0.15

    def test_equal_means_degenerate(self):
        stats = AssetStats(mu=np.array([0.1, 0.1, 0.1]), C=np.eye(3))
        with pytest.raises(ValueError, match="degenerate"):
            build_problem(stats, 0.1)

    def test_out_of_range_target(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]), C=np.eye(2))
        with pytest.raises(ValueError) as excinfo:
            build_problem(stats, 0.5)
        message = str(excinfo.value)
        assert "0.5" in message
        assert "0.1" in message and "0.2" in message

    def test_out_of_range_override(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]), C=np.eye(2))
        problem = build_problem(stats, 0.5, allow_out_of_range=True)
        assert problem.e == 0.5

    def test_boundary_targets_allowed(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]), C=np.eye(2))
        build_problem(stats, 0.1)
        build_problem(stats, 0.2)


class TestPortfolioProblemValidation:
    def _parts(self):
        return dict(C=np.eye(2), mu=np.array([0.1, 0.2]), e=0.15)

    def test_valid_roundtrip(self):
        PortfolioProblem(**self._parts())

    def test_equal_constraint_rows_degenerate(self):
        # mu identical to the budget row makes D rank 1
        with pytest.raises(ValueError, match="degenerate"):
            PortfolioProblem(np.eye(3), np.ones(3), 1.0)

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PortfolioProblem(np.eye(2), np.array([0.1, 0.2]), np.nan)

    def test_covariance_must_be_pd(self):
        parts = self._parts()
        parts["C"] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            PortfolioProblem(**parts)


class TestObjective:
    def test_identity_hand_value(self):
        value = objective_value(np.eye(2), np.array([0.5, 0.5]), 0.1)
        assert value == pytest.approx(0.35, abs=1e-15)

    def test_zero_weights_zero_lambda(self):
        assert objective_value(np.eye(3), np.zeros(3), 0.0) == 0.0

    def test_matches_oracle_evaluation(self):
        problem = factor_problem(n=6, seed=9)
        result = enumerate_solve(problem, 0.002)
        mine = objective_value(problem.C, result.weights, 0.002)
        assert mine == pytest.approx(result.objective, abs=1e-14)

    def test_evaluate_objective_checks_dimensions(self):
        problem = identity_problem()
        with pytest.raises(ValueError, match="weights"):
            evaluate_objective(problem, Portfolio(np.array([1.0, 0.0])), 0.0)

    def test_evaluate_objective_rejects_negative_lambda(self):
        problem = identity_problem()
        with pytest.raises(ValueError, match="lam"):
            evaluate_objective(problem, Portfolio(np.ones(3) / 3), -0.1)


class TestConstraintViolation:
    def test_feasible_point(self):
        problem = identity_problem()
        w = Portfolio(np.ones(3) / 3)
        ret_miss, budget_miss = constraint_violation(problem, w)
        assert ret_miss <= 1e-12
        assert budget_miss <= 1e-12

    def test_zero_portfolio(self):
        problem = identity_problem(e=0.2)
        ret_miss, budget_miss = constraint_violation(problem, Portfolio(np.zeros(3)))
        assert ret_miss == pytest.approx(0.2)
        assert budget_miss == pytest.approx(1.0)


class TestCountShortPositions:
    def test_single_short(self):
        assert count_short_positions(np.array([0.6, -0.1, 0.5])) == 1

    def test_all_long(self):
        assert count_short_positions(np.array([0.4, 0.6])) == 0

    def test_below_tolerance_negative_ignored(self):
        assert count_short_positions(np.array([-1e-12, 1 + 1e-12])) == 0

    def test_boundary_is_strict(self):
        assert ZERO_TOL == 1e-9
        assert count_short_positions(np.array([-1e-9, 1.0])) == 0
        assert count_short_positions(np.array([-1.0000001e-9, 1.0])) == 1


class TestPortfolio:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Portfolio(np.array([np.inf, 0.0]))

    def test_matrix_weights_rejected(self):
        with pytest.raises(ValueError, match="vector"):
            Portfolio(np.zeros((2, 2)))
