import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_problem, identity_problem, mean_diag_rho, two_asset_problem
from exhaustive_oracle import InfeasibleTargetError, enumerate_solve
from sparsefolio.admm_engine import SolverConfig, solve
from sparsefolio.kkt import check_kkt
from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
from sparsefolio.model import PortfolioProblem, build_problem, objective_value
from sparsefolio.penalty import PENALTY_KINDS, PenaltyConfig


def degenerate_problem(n=3):
    # identical constraint rows defeat every support system; building the
    # problem raises, so the oracle is never handed one
    mu = np.ones(n)
    return PortfolioProblem(C=np.eye(n), mu=mu, e=1.0)


class TestCheckKkt:
    def test_exact_optimum_scores_zero(self):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        x = np.ones(3) / 3
        # stationarity: x + D'nu = 0 has the symmetric solution below
        nu = np.linalg.lstsq(problem.D.T, -x, rcond=None)[0]
        assert check_kkt(problem, 0.0, x, nu, np.zeros(3)) <= 1e-12

    def test_budget_violation_is_reported(self):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        x = np.array([0.5, 0.5, 0.5])
        assert check_kkt(problem, 0.0, x, np.zeros(2), np.zeros(3)) >= 0.5

    def test_off_support_subgradient_overflow_counts(self):
        problem = two_asset_problem()
        res = enumerate_solve(problem, 0.01)
        bad_g = res.subgradient.copy()
        bad_g[0] = 3.0
        # asset 0 is on the support here, so g must equal its sign
        assert res.weights[0] != 0
        assert check_kkt(problem, 0.01, res.weights, res.multiplier, bad_g) >= 1.9


class TestUnpenalized:
    def test_matches_direct_equality_qp(self):
        problem = factor_problem(n=6, seed=11)
        res = enumerate_solve(problem, 0.0)
        n = problem.n
        K = np.zeros((n + 2, n + 2))
        K[:n, :n] = problem.C
        K[:n, n:] = problem.D.T
        K[n:, :n] = problem.D
        expected = np.linalg.solve(K, np.concatenate([np.zeros(n), problem.b]))
        np.testing.assert_allclose(res.weights, expected[:n], atol=1e-12)
        np.testing.assert_allclose(res.multiplier, expected[n:], atol=1e-12)
        assert res.unique
        np.testing.assert_array_equal(res.subgradient, np.zeros(n))

    def test_degenerate_constraints_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            enumerate_solve(degenerate_problem(), 0.0)


class TestEnumerateSolve:
    @pytest.mark.parametrize("lam", [0.0, 0.005, 0.1, 2.0])
    def test_two_assets_pinned_by_constraints(self, lam):
        res = enumerate_solve(two_asset_problem(e=0.15), lam)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    def test_symmetric_case(self, lam):
        res = enumerate_solve(identity_problem(mu=(0.1, 0.2, 0.3), e=0.2), lam)
        np.testing.assert_allclose(res.weights, np.ones(3) / 3, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certificate_holds_on_random_instances(self, seed):
        problem = factor_problem(n=6, seed=seed, noise_scale=0.03)
        lam = 0.01 / 60
        res = enumerate_solve(problem, lam)
        assert check_kkt(problem, lam, res.weights, res.multiplier,
                         res.subgradient) <= 1e-9
        on = res.weights != 0
        np.testing.assert_array_equal(res.subgradient[on],
                                      np.sign(res.weights[on]))
        assert np.abs(res.subgradient).max() <= 1.0 + 1e-9
        expected_obj = objective_value(problem.C, res.weights, lam)
        assert res.objective == pytest.approx(expected_obj, abs=1e-15)

    def test_objective_dominates_feasible_competitors(self, rng):
        problem = factor_problem(n=5, seed=9, noise_scale=0.03)
        lam = 0.002
        res = enumerate_solve(problem, lam)
        # project random vectors onto the constraints and compare objectives
        D, b = problem.D, problem.b
        P = np.eye(5) - D.T @ np.linalg.solve(D @ D.T, D)
        x_part = D.T @ np.linalg.solve(D @ D.T, b)
        for _ in range(200):
            x = x_part + P @ rng.standard_normal(5)
            assert objective_value(problem.C, x, lam) >= res.objective - 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_solve(two_asset_problem(), -0.1)

    def test_large_problems_refused(self):
        problem = build_problem(np.linspace(0.01, 0.02, 13), np.eye(13), 0.015)
        with pytest.raises(ValueError, match="capped"):
            enumerate_solve(problem, 0.01)

    def test_degenerate_constraints_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            enumerate_solve(degenerate_problem(), 0.01)


def per_pattern_solve(problem, lam, kkt_tol=1e-9, tie_tol=1e-10):
    """Reference oracle: one KKT solve per sign pattern, in pattern order.

    Returns (weights, unique) of the first strictly-best verified candidate.
    """
    C, D, b, n = problem.C, problem.D, problem.b, problem.n
    candidates = []
    for signs in itertools.product((-1, 0, 1), repeat=n):
        if n - signs.count(0) < 2:
            continue
        s = np.array(signs, dtype=float)
        support = s != 0
        k = int(support.sum())
        A = np.zeros((k + 2, k + 2))
        A[:k, :k] = C[np.ix_(support, support)]
        A[:k, k:] = D[:, support].T
        A[k:, :k] = D[:, support]
        try:
            solution = np.linalg.solve(A, np.concatenate([-lam * s[support], b]))
        except np.linalg.LinAlgError:
            continue
        x_support, nu = solution[:k], solution[k:]
        if not np.all(s[support] * x_support > 0):
            continue
        x = np.zeros(n)
        x[support] = x_support
        g = s.copy()
        if k < n:
            g[~support] = -(C @ x + D.T @ nu)[~support] / lam
        if check_kkt(problem, lam, x, nu, g) > kkt_tol:
            continue
        candidates.append((objective_value(C, x, lam),
                           frozenset(np.flatnonzero(support).tolist()), x))
    if not candidates:
        raise InfeasibleTargetError("no verified pattern")
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] < best[0]:
            best = cand
    unique = not any(cand[1] != best[1] and abs(cand[0] - best[0]) <= tie_tol
                     for cand in candidates)
    return best[2], unique


class TestPerSupportSolve:
    """enumerate_solve batches each support's sign vectors into one solve; it
    must pick what the one-solve-per-pattern reference picks."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_pattern_reference(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        problem = factor_problem(n=n, seed=seed, noise_scale=0.03)
        mu = problem.mu
        e = float(mu.min() + rng.uniform(0.02, 0.98) * (mu.max() - mu.min()))
        problem = factor_problem(n=n, seed=seed, noise_scale=0.03, e=e)
        # from shorts on a full support to a long-only sparse one
        for lam in (1e-7, float(10 ** rng.uniform(-5, -3)), 0.05):
            res = enumerate_solve(problem, lam)
            weights, unique = per_pattern_solve(problem, lam)
            np.testing.assert_allclose(res.weights, weights, rtol=0, atol=1e-12)
            assert res.unique == unique

    def test_matches_per_pattern_reference_at_a_tie(self):
        # the support boundary of TestUniqueness, where unique is False
        lo, hi = 0.165, 0.170
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            problem = build_problem(TestUniqueness.MU, TestUniqueness.C, mid)
            if enumerate_solve(problem, TestUniqueness.LAM).weights[0] > 0:
                lo = mid
            else:
                hi = mid
        problem = build_problem(TestUniqueness.MU, TestUniqueness.C, lo)
        res = enumerate_solve(problem, TestUniqueness.LAM)
        weights, unique = per_pattern_solve(problem, TestUniqueness.LAM)
        np.testing.assert_allclose(res.weights, weights, rtol=0, atol=1e-12)
        assert res.unique == unique is False


class TestUniqueness:
    MU = np.array([0.05, 0.10, 0.20])
    C = np.array([[0.06, 0.01, 0.00],
                  [0.01, 0.05, 0.01],
                  [0.00, 0.01, 0.09]])
    LAM = 0.004

    def _solve(self, e):
        problem = build_problem(self.MU, self.C, e)
        return enumerate_solve(problem, self.LAM)

    def test_generic_target_is_unique(self):
        assert self._solve(0.12).unique

    def test_tie_at_support_boundary(self):
        # asset 0 leaves the support as the target return rises; bisect to
        # the boundary, where the two adjacent supports verify with equal
        # objectives and uniqueness can no longer be claimed
        lo, hi = 0.165, 0.170
        assert self._solve(lo).weights[0] > 0
        assert self._solve(hi).weights[0] == 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self._solve(mid).weights[0] > 0:
                lo = mid
            else:
                hi = mid
        res = self._solve(lo)
        assert 0 < res.weights[0] < 1e-9
        assert not res.unique


class TestPerturbationSeparation:
    def test_single_weight_bump_breaks_certificate(self):
        problem = factor_problem(n=6, seed=14, noise_scale=0.03)
        lam = 0.002
        res = enumerate_solve(problem, lam)
        for j in range(problem.n):
            bumped = res.weights.copy()
            bumped[j] += 0.1
            violation = check_kkt(problem, lam, bumped, res.multiplier,
                                  res.subgradient)
            assert violation >= 0.01


class TestSolveMatchesOracle:
    """solve against enumerate_solve on small factor problems, with targets
    strictly inside the range of the means."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 6), seed=st.integers(0, 10_000),
           point=st.floats(0.01, 0.99), scale=st.sampled_from([0.0, 1.0, 10.0]),
           kind=st.sampled_from(PENALTY_KINDS))
    def test_solve_agrees_with_the_oracle(self, n, seed, point, scale, kind):
        # every solve converges, a repeat is bitwise equal, the objective is
        # the oracle's to 1e-6 and a certified solve is the oracle's optimum:
        # its support, and weights to 1e-12 (a one-column solve of the
        # support block against the oracle's many-column one)
        m = 60
        problem = factor_problem(n=n, m=m, seed=seed)
        low, high = problem.mu.min(), problem.mu.max()
        problem = problem.at(low + point * (high - low))
        lam = scale * initial_lambda(m, n)
        config = SolverConfig(
            tol=1e-8, max_iter=200_000,
            penalty=PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.fixed(lam))
        result = solve(problem, config)
        assert result.termination == "converged"
        again = solve(problem, config)
        assert again.weights.tobytes() == result.weights.tobytes()
        assert again.iterations == result.iterations
        oracle = enumerate_solve(problem, lam)
        assert abs(result.objective - oracle.objective) \
            <= 1e-6 * abs(oracle.objective)
        if result.certified:
            assert np.array_equal(result.weights != 0, oracle.weights != 0)
            np.testing.assert_allclose(result.weights, oracle.weights,
                                       rtol=0, atol=1e-12)
