import numpy as np
import pytest

from conftest import factor_problem
from exhaustive_oracle import enumerate_solve
from sparsefolio.model import (
    ZERO_TOL,
    PortfolioProblem,
    build_problem,
    count_short_positions,
    objective_value,
)


class TestBuildProblem:
    def test_direct_stacking(self):
        mu, C = np.array([0.1, 0.2]), np.eye(2)
        problem = build_problem(mu, C, 0.15)
        np.testing.assert_array_equal(problem.D, [[0.1, 0.2], [1.0, 1.0]])
        np.testing.assert_array_equal(problem.b, [0.15, 1.0])
        assert problem.n == 2
        assert problem.e == 0.15

    def test_equal_means_degenerate(self):
        mu, C = np.array([0.1, 0.1, 0.1]), np.eye(3)
        with pytest.raises(ValueError, match="degenerate"):
            build_problem(mu, C, 0.1)

    def test_out_of_range_override(self):
        # a target beyond the asset means is well posed, as D has rank 2;
        # only solve --target-return asks for one within them
        mu, C = np.array([0.1, 0.2]), np.eye(2)
        problem = build_problem(mu, C, 0.5)
        assert problem.e == 0.5

    def test_boundary_targets_allowed(self):
        # at each bound the target is one asset's mean, and b is (e, 1)
        mu, C = np.array([0.1, 0.2]), np.eye(2)
        for e in (0.1, 0.2):
            problem = build_problem(mu, C, e)
            assert problem.e == e
            np.testing.assert_array_equal(problem.b, [e, 1.0])
            np.testing.assert_array_equal(problem.D, [[0.1, 0.2], [1.0, 1.0]])


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

    # refused before the rank test, whose SVD fails on a NaN mean and
    # passes an infinite one, which then gives NaN weights
    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="means have non-finite"):
            PortfolioProblem(np.eye(3), np.array([mean, 0.1, 0.2]), 0.1)

    def test_covariance_must_be_pd(self):
        parts = self._parts()
        parts["C"] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            PortfolioProblem(**parts)

    # Cholesky reads only the lower triangle, which in the asymmetric case
    # is the positive definite identity, and does not reject a NaN
    @pytest.mark.parametrize("C, message", [
        ([[1.0, 5.0], [0.0, 1.0]], "symmetric"),
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "non-finite"),
    ], ids=["asymmetric", "nan", "inf"])
    def test_covariance_checked_before_cholesky(self, C, message):
        parts = self._parts()
        parts["C"] = np.array(C)
        with pytest.raises(ValueError, match=message):
            PortfolioProblem(**parts)


class TestStoredCovariance:
    """PortfolioProblem stores C exactly symmetric, so C' is C bitwise."""

    @staticmethod
    def moments(n=6, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        return rng.uniform(0.01, 0.05, size=n), A @ A.T + n * np.eye(n)

    def test_symmetric_covariance_kept_as_given(self):
        mu, C = self.moments()
        assert np.array_equal(C, C.T)
        kept = C.tobytes()
        problem = build_problem(mu, C, float(mu.mean()))
        assert problem.C.tobytes() == kept

    def test_covariance_within_tolerance_symmetrized(self):
        mu, C = self.moments()
        C[0, 1] += 4e-13
        C[3, 2] -= 1e-13
        asymmetric = C.copy()
        problem = build_problem(mu, C, float(mu.mean()))
        assert problem.C.tobytes() == (0.5 * (C + C.T)).tobytes()
        assert problem.C.tobytes() == problem.C.T.copy().tobytes()
        # the caller's array is left as it was
        assert C.tobytes() == asymmetric.tobytes()


class TestAt:
    """problem.at(e) re-targets a checked problem: it shares C, mu and D
    and replaces e and b."""

    def test_shares_the_moments_and_replaces_the_target(self):
        problem = factor_problem(n=5)
        other = problem.at(0.02)
        assert other.C is problem.C and other.mu is problem.mu
        assert other.D is problem.D and other.n == problem.n
        assert other.e == 0.02
        np.testing.assert_array_equal(other.b, [0.02, 1.0])
        # the problem it came from keeps its own target
        assert problem.b.tolist() == [problem.e, 1.0]

    def test_equals_the_built_problem(self):
        problem = factor_problem(n=5)
        e = float(problem.mu.max())
        built = build_problem(problem.mu, problem.C, e)
        other = problem.at(e)
        for name in ("C", "mu", "D", "b"):
            assert getattr(other, name).tobytes() == getattr(built, name).tobytes()
        assert (other.e, other.n) == (built.e, built.n)

    @pytest.mark.parametrize("e", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, e):
        with pytest.raises(ValueError, match="finite"):
            factor_problem(n=5).at(e)


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
