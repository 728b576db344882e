import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

import sparsefolio.kkt as kkt
from conftest import factor_problem, identity_problem, two_asset_problem
from exhaustive_oracle import enumerate_solve
from sparsefolio.admm_engine import SolverConfig, solve
from sparsefolio.kkt import (
    KKT_TOL,
    Finish,
    FinishCounts,
    attempt_floor,
    check_kkt,
    factorize,
    finish_steps,
    single_asset_multipliers,
    solve_support,
    solve_x_update,
)
from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
from sparsefolio.model import PortfolioProblem, objective_value
from sparsefolio.penalty import RHO_MAX, RHO_MIN, PenaltyConfig


def random_problem(n, rng, scale=1.0):
    A = rng.standard_normal((n, n))
    C = scale * (A @ A.T + n * np.eye(n))
    mu = rng.uniform(0.01, 0.05, size=n)
    return PortfolioProblem(C=C, mu=mu, e=0.5 * (mu.min() + mu.max()))


def recover_multiplier(problem, rho, z, y, x):
    """Least-squares nu of the top block rows: D'nu = -((C + rho*I)x - rho*z - y)."""
    r = (problem.C + rho * np.eye(problem.n)) @ x - (rho * z + y)
    return np.linalg.lstsq(problem.D.T, -r, rcond=None)[0]


def kkt_residuals(problem, rho, z, y, x, nu):
    top = (problem.C + rho * np.eye(problem.n)) @ x + problem.D.T @ nu \
        - (rho * z + y)
    bottom = problem.D @ x - problem.b
    return float(np.abs(top).max()), float(np.abs(bottom).max())


class TestFactorize:
    def test_identity_covariance(self):
        problem = two_asset_problem()
        fact = factorize(problem, 1.0)
        assert fact.lu.shape == (4, 4)
        np.testing.assert_array_equal(fact.rhs[2:], problem.b)

    @pytest.mark.parametrize("rho", [RHO_MIN, 0.37, 1, RHO_MAX])
    def test_keeps_rho_as_float_and_vector(self, rho):
        fact = factorize(factor_problem(n=5), rho)
        assert fact.rho_vector.tobytes() == np.full(5, float(rho)).tobytes()

    def test_nonpositive_rho_rejected(self):
        problem = two_asset_problem()
        with pytest.raises(ValueError, match="rho"):
            factorize(problem, 0.0)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            factorize(two_asset_problem(), rho)

    @pytest.mark.parametrize("n", [10, 60])
    def test_factors_match_lu_factor_of_block(self, rng, n):
        problem = random_problem(n, rng)
        problem.C[0, 1] = problem.C[1, 0] = -0.0
        for rho in (1e-8, 0.37, 1e8):
            K = np.zeros((n + 2, n + 2))
            K[:n, :n] = problem.C + rho * np.eye(n)
            K[:n, n:] = problem.D.T
            K[n:, :n] = problem.D
            lu, piv = lu_factor(K)
            fact = factorize(problem, rho)
            assert fact.lu.tobytes(order="F") == lu.tobytes(order="F")
            np.testing.assert_array_equal(fact.piv, piv)

    @pytest.mark.parametrize("n", [10, 60])
    def test_factors_equal_the_transposing_assembly(self, rng, n):
        # the block's C part is copied from C', in the block's memory order;
        # on a C stored exactly symmetric the factors are byte for byte
        # those of the former transposing add of C itself
        mu = rng.uniform(0.01, 0.05, size=n)
        A = rng.standard_normal((n, n))
        C = A @ A.T + n * np.eye(n)
        C[0, 1] = C[1, 0] = -0.0
        C[2, 3] += 1e-13  # symmetrized when stored
        problem = PortfolioProblem(C=C, mu=mu, e=float(mu.mean()))
        getrf = get_lapack_funcs("getrf", dtype=np.float64)
        for rho in (1e-8, 0.37, 1e8):
            K = np.zeros((n + 2, n + 2), order="F")
            np.add(problem.C, 0.0, out=K[:n, :n])
            K.flat[:n * (n + 3):n + 3] += rho
            K[:n, n:] = problem.D.T
            K[n:, :n] = problem.D
            lu, piv, info = getrf(K, overwrite_a=True)
            assert info == 0
            fact = factorize(problem, rho)
            assert fact.lu.tobytes(order="F") == lu.tobytes(order="F")
            assert fact.piv.tobytes() == piv.tobytes()

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


class TestSolveXUpdate:
    def test_two_assets_fully_constrained(self, rng):
        problem = two_asset_problem(e=0.15)
        for rho in (0.5, 1.0, 10.0):
            fact = factorize(problem, rho)
            for _ in range(3):
                z = rng.standard_normal(2)
                y = rng.standard_normal(2)
                x = solve_x_update(fact, z, y)
                np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_symmetric_three_asset_case(self):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        fact = factorize(problem, 1.0)
        x = solve_x_update(fact, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(x, np.ones(3) / 3, atol=1e-14)

    def test_block_equations_hold(self, rng):
        problem = random_problem(8, rng)
        for rho in (0.3, 1.0, 7.5):
            fact = factorize(problem, rho)
            z = rng.standard_normal(8)
            y = rng.standard_normal(8)
            x = solve_x_update(fact, z, y)
            nu = recover_multiplier(problem, rho, z, y, x)
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
            x = solve_x_update(fact, z, y)
            assert np.abs(problem.D @ x - problem.b).max() <= 1e-10

    def test_matches_dense_solver_large_n(self, rng):
        problem = random_problem(50, rng)
        rho = 1.7
        fact = factorize(problem, rho)
        z = rng.standard_normal(50)
        y = rng.standard_normal(50)
        x = solve_x_update(fact, z, y)
        K = np.zeros((52, 52))
        K[:50, :50] = problem.C + rho * np.eye(50)
        K[:50, 50:] = problem.D.T
        K[50:, :50] = problem.D
        expected = np.linalg.solve(K, np.concatenate([rho * z + y, problem.b]))
        scale = max(1.0, float(np.abs(expected[:50]).max()))
        assert np.abs(x - expected[:50]).max() / scale <= 1e-10

    def test_returns_weights_only(self, rng):
        problem = random_problem(5, rng)
        fact = factorize(problem, 1.0)
        x = solve_x_update(fact, np.zeros(5), np.zeros(5))
        assert x.shape == (5,)

    def test_results_do_not_alias_scratch_or_each_other(self, rng):
        problem = random_problem(6, rng)
        fact = factorize(problem, 0.7)
        z1, y1 = rng.standard_normal(6), rng.standard_normal(6)
        z2, y2 = rng.standard_normal(6), rng.standard_normal(6)
        inputs = [v.copy() for v in (z1, y1, z2, y2)]
        first = solve_x_update(fact, z1, y1)
        kept = first.copy()
        second = solve_x_update(fact, z2, y2)
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, fact.rhs)
        assert not np.shares_memory(second, fact.rhs)
        for given, copy in zip((z1, y1, z2, y2), inputs):
            np.testing.assert_array_equal(given, copy)
        # the tail of the scratch still holds b
        np.testing.assert_array_equal(fact.rhs[6:], problem.b)

    def test_bitwise_equal_to_concatenated_right_hand_side(self, rng):
        problem = random_problem(7, rng)
        fact = factorize(problem, 1.3)
        lu, piv = lu_factor(np.block([[problem.C + 1.3 * np.eye(7), problem.D.T],
                                      [problem.D, np.zeros((2, 2))]]))
        for _ in range(3):
            z, y = rng.standard_normal(7), rng.standard_normal(7)
            expected = lu_solve((lu, piv),
                                np.concatenate([1.3 * z + y, problem.b]))
            assert solve_x_update(fact, z, y).tobytes() == expected[:7].tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(z=hnp.arrays(np.float64, 2), y=hnp.arrays(np.float64, 2),
           rho=st.floats(RHO_MIN, RHO_MAX))
    @example(z=np.array([-0.0, 5e-324]), y=np.array([-0.0, np.nan]), rho=RHO_MIN)
    @example(z=np.array([np.inf, 1e300]), y=np.array([-np.inf, 1e300]),
             rho=RHO_MAX)
    def test_right_hand_side_bitwise_rho_times_z_plus_y(self, z, y, rho):
        # the solve multiplies by the rho vector; the head it hands getrs is
        # rho*z + y with the float rho, bitwise
        fact = factorize(two_asset_problem(), rho)
        with np.errstate(all="ignore"):
            solve_x_update(fact, z, y)
            expected = rho * z + y
        assert fact.head.tobytes() == expected.tobytes()


class TestSolveSupport:
    @pytest.mark.parametrize("columns", [None, 3])
    def test_block_equations_hold_on_the_support(self, rng, columns):
        problem = random_problem(6, rng)
        support = np.array([True, False, True, True, False, True])
        head = rng.standard_normal(4 if columns is None else (4, columns))
        solution = solve_support(problem, support, head)
        assert solution.shape == (6,) + head.shape[1:]
        x_s, nu = solution[:4], solution[4:]
        C_ss = problem.C[np.ix_(support, support)]
        D_s = problem.D[:, support]
        b = problem.b if columns is None else problem.b[:, None]
        np.testing.assert_allclose(C_ss @ x_s + D_s.T @ nu, head, atol=1e-12)
        np.testing.assert_allclose(D_s @ x_s - b, 0.0, atol=1e-12)

    def test_support_wider_than_one_gather(self, rng):
        # the block gathers C_SS 64 rows at a time
        problem = random_problem(150, rng, scale=1e-3)
        support = rng.random(150) < 0.9
        k = int(support.sum())
        head = rng.standard_normal(k)
        solution = solve_support(problem, support, head)
        C_ss = problem.C[np.ix_(support, support)]
        D_s = problem.D[:, support]
        np.testing.assert_allclose(C_ss @ solution[:k] + D_s.T @ solution[k:],
                                   head, atol=1e-12)
        np.testing.assert_allclose(D_s @ solution[:k], problem.b, atol=1e-12)

    def test_singular_block_raises_linalg_error(self):
        # equal means on the support leave D_S rank 1, exactly so with
        # binary fractions; the oracle skips such a support on this exception
        problem = identity_problem(mu=(0.25, 0.25, 0.75), e=0.5)
        with pytest.raises(np.linalg.LinAlgError):
            solve_support(problem, np.array([True, True, False]), np.zeros(2))


class TestCertify:
    """kkt.Finish(problem, lam, z).run(steps): the optimum on z's support
    and signs, or None."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_oracle_support_certifies_to_the_oracle(self, seed, lam):
        problem = factor_problem(n=7, seed=seed)
        oracle = enumerate_solve(problem, lam)
        # any z with the optimum's support and signs will do
        x, nu, g = Finish(problem, lam, 3.0 * np.sign(oracle.weights)).run(1)
        np.testing.assert_allclose(x, oracle.weights, rtol=0, atol=1e-12)
        assert np.array_equal(x != 0, oracle.weights != 0)
        assert check_kkt(problem, lam, x, nu, g) <= KKT_TOL
        assert np.all(np.abs(g) <= 1.0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_certify_solves_the_block_through_solve_support(self, seed, lam):
        # one route for the support block: the certified weights are
        # bitwise the solve_support solution the oracle's enumeration reads
        # (two solvers of the block differ in the last bits at seed 0)
        problem = factor_problem(n=8, seed=seed)
        signs = np.sign(enumerate_solve(problem, lam).weights)
        support = signs != 0
        polish = Finish(problem, lam, signs).run(1)
        assert polish is not None
        solution = solve_support(problem, support, -lam * signs[support])
        k = int(support.sum())
        assert polish[0][support].tobytes() == solution[:k].tobytes()
        assert polish[1].tobytes() == solution[k:].tobytes()

    def test_single_asset_support_is_not_certified(self):
        # at e = the largest mean the lone top asset is feasible, but at lam
        # 0.01 the optimum holds three assets: no multipliers keep every
        # |g_i| <= 1 off the top asset
        mu = factor_problem(n=6, m=60, seed=1).mu
        problem = factor_problem(n=6, m=60, seed=1, e=float(mu.max()))
        top = np.argmax(problem.mu)
        z = np.zeros(6)
        z[top] = 1.0
        assert np.count_nonzero(enumerate_solve(problem, 0.01).weights) == 3
        assert single_asset_multipliers(problem, 0.01, top) is None
        assert Finish(problem, 0.01, z).run(1) is None
        assert Finish(problem, 0.01, np.zeros(6)).run(1) is None

    @pytest.mark.parametrize("end", ["min", "max"])
    def test_single_asset_optimum_is_certified(self, end):
        # at lam 0.1 the extreme-mean asset alone is the optimum: its block
        # is singular, and an interval of nu_1 certifies it
        mu = factor_problem(n=6, m=60, seed=1).mu
        e = float(getattr(mu, end)())
        problem = factor_problem(n=6, m=60, seed=1, e=e)
        j = int(np.flatnonzero(problem.mu == e)[0])
        lone = np.eye(6)[j]
        oracle = enumerate_solve(problem, 0.1)
        np.testing.assert_array_equal(oracle.weights, lone)
        x, nu, g = Finish(problem, 0.1, 2.0 * lone).run(1)
        np.testing.assert_array_equal(x, lone)
        assert check_kkt(problem, 0.1, x, nu, g) <= KKT_TOL
        # no lone asset at lam = 0, and none whose mean is not the target
        assert Finish(problem, 0.0, lone).run(1) is None
        assert Finish(problem, 0.1, np.eye(6)[(j + 1) % 6]).run(1) is None
        # a negative sign flips: one step fails, a second takes x's own sign
        assert Finish(problem, 0.1, -lone).run(1) is None
        np.testing.assert_array_equal(Finish(problem, 0.1, -lone).run(2)[0], lone)
        # another lone asset misses the target; with a step left the finish
        # goes on from the cheapest feasible pair, here the optimum's asset
        # at weight 1 beside it at 0, which the next step certifies
        other = (j + 1) % 6
        np.testing.assert_array_equal(kkt._cheapest_pair(problem, 0.1, other),
                                      lone)
        np.testing.assert_array_equal(
            Finish(problem, 0.1, np.eye(6)[other]).run(2)[0], lone)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
    def test_cheapest_pair_is_the_lowest_feasible_pair(self, seed, lam):
        # against the objective of every pair {j, i} with mu_i != mu_j that
        # meets Dx = b
        problem = factor_problem(n=6, seed=seed)
        e = problem.b[0]
        for j in range(6):
            x = kkt._cheapest_pair(problem, lam, j)
            assert x[j] != 0 and 1 <= np.count_nonzero(x) <= 2
            np.testing.assert_allclose(problem.D @ x, problem.b, rtol=0,
                                       atol=1e-15)
            values = []
            for i in np.flatnonzero(problem.mu != problem.mu[j]):
                pair = np.zeros(6)
                pair[i] = (e - problem.mu[j]) / (problem.mu[i] - problem.mu[j])
                pair[j] = 1 - pair[i]
                values.append(objective_value(problem.C, pair, lam))
            assert objective_value(problem.C, x, lam) == pytest.approx(
                min(values), rel=1e-12)

    def test_lone_asset_off_the_target_needs_a_step_left(self):
        # at a midpoint target no lone asset is feasible: one step gives
        # None, and the finish from the pair gives None or the optimum
        problem = factor_problem(n=6, seed=2)
        lam = 1e-3
        oracle = enumerate_solve(problem, lam)
        for j in range(6):
            lone = np.eye(6)[j]
            assert problem.mu[j] != problem.b[0]
            assert Finish(problem, lam, lone).run(1) is None
            polish = Finish(problem, lam, lone).run(12)
            assert polish is not None
            np.testing.assert_allclose(polish[0], oracle.weights, rtol=0,
                                       atol=1e-12)

    def test_equal_means_on_the_support_are_not_certified(self):
        # D_S has rank 1 on a support whose means are equal: gesv finds the
        # block singular
        problem = identity_problem(mu=(0.1, 0.1, 0.3), e=0.2)
        assert Finish(problem, 0.0, np.array([1.0, 1.0, 0.0])).run(1) is None

    def test_lambda_zero_gives_the_equality_constrained_qp(self):
        problem = factor_problem(n=6, seed=3)
        n = problem.n
        qp = solve_support(problem, np.ones(n, dtype=bool), np.zeros(n))
        x, nu, g = Finish(problem, 0.0, np.sign(qp[:n])).run(1)
        np.testing.assert_allclose(x, qp[:n], rtol=0, atol=1e-14)
        np.testing.assert_allclose(nu, qp[n:], rtol=1e-10)
        assert np.all(x != 0)
        assert check_kkt(problem, 0.0, x, nu, np.zeros(n)) <= KKT_TOL

    def test_lambda_zero_off_the_qp_support_is_rejected(self):
        # at lam = 0 an asset held at zero must have zero gradient
        problem = factor_problem(n=6, seed=3)
        qp = solve_support(problem, np.ones(6, dtype=bool), np.zeros(6))
        z = np.sign(qp[:6])
        z[0] = 0.0
        assert Finish(problem, 0.0, z).run(1) is None

    def test_wrong_signs_are_rejected(self):
        problem = factor_problem(n=7, seed=2)
        lam = 1e-3
        signs = np.sign(enumerate_solve(problem, lam).weights)
        assert Finish(problem, lam, signs).run(1) is not None
        for i in np.flatnonzero(signs):
            flipped = signs.copy()
            flipped[i] = -flipped[i]
            assert Finish(problem, lam, flipped).run(1) is None

    def test_support_missing_an_asset_is_rejected(self):
        # dropping an asset of the optimum leaves a subgradient beyond 1
        # or a sign that flips
        problem = factor_problem(n=7, seed=2)
        lam = 1e-3
        signs = np.sign(enumerate_solve(problem, lam).weights)
        assert np.count_nonzero(signs) > 2
        for i in np.flatnonzero(signs):
            dropped = signs.copy()
            dropped[i] = 0.0
            assert Finish(problem, lam, dropped).run(1) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_finish_corrects_one_wrong_asset(self, seed):
        # one dropped, flipped or added asset fails the one-shot certificate,
        # and the finish reaches the oracle's optimum within 2n block solves
        # (at most 12 on these 74 patterns)
        problem = factor_problem(n=7, seed=seed)
        lam = 1e-3
        oracle = enumerate_solve(problem, lam)
        signs = np.sign(oracle.weights)
        for i in range(7):
            for value in {0.0, -signs[i] or 1.0} - {signs[i]}:
                z = signs.copy()
                z[i] = value
                assert Finish(problem, lam, z).run(1) is None
                x = Finish(problem, lam, z).run(14)[0]
                np.testing.assert_allclose(x, oracle.weights, rtol=0, atol=1e-12)
                assert np.array_equal(x != 0, signs != 0)


class TestFinishProperty:
    """For any sign vector z, Finish(problem, lam, z).run(steps) is the
    optimum or None, and makes at most steps block solves; the optimum's
    weights are solve_support's on its support, bitwise."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def instance(n, seed, point, lam):
        # points 0 and 4 are the extreme means, where one asset can be optimal
        mu = factor_problem(n=n, m=60, seed=seed).mu
        e = float(np.linspace(mu.min(), mu.max(), 5)[point])
        problem = factor_problem(n=n, m=60, seed=seed, e=e)
        return problem, enumerate_solve(problem, lam)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 3),
           point=st.integers(0, 4), lam=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
           steps=st.integers(1, 6), data=st.data())
    def test_none_or_the_optimum_within_the_budget(self, n, seed, point, lam,
                                                   steps, data):
        problem, oracle = self.instance(n, seed, point, lam)
        z = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                        min_size=n, max_size=n)))
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_support(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kkt, "solve_support", counted)
            polish = Finish(problem, lam, z).run(steps)
        assert len(calls) <= steps
        if polish is not None:
            x, nu, g = polish
            np.testing.assert_allclose(x, oracle.weights, rtol=0, atol=1e-12)
            assert check_kkt(problem, lam, x, nu, g) <= KKT_TOL
            # the weights are solve_support's on their support and signs,
            # bitwise (a lone asset is e_j, with no block solve)
            support = x != 0
            if np.count_nonzero(support) > 1:
                solution = solve_support(problem, support,
                                         -lam * np.sign(x[support]))
                assert x[support].tobytes() == solution[:-2].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 3),
           point=st.integers(0, 4), lam=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
           steps=st.integers(1, 6), data=st.data())
    def test_a_larger_budget_keeps_a_certificate(self, n, seed, point, lam,
                                                 steps, data):
        # the finish takes the same steps whatever is left of its budget,
        # so a certificate found within steps is found, bitwise, within more
        problem, _ = self.instance(n, seed, point, lam)
        z = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                        min_size=n, max_size=n)))
        polish = Finish(problem, lam, z).run(steps)
        if polish is None:
            return
        for more in range(steps + 1, 13):
            again = Finish(problem, lam, z).run(more)
            assert again is not None
            for a, b in zip(polish, again):
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 3),
           point=st.integers(0, 4), lam=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
           steps=st.integers(1, 6), more=st.integers(1, 6), data=st.data())
    def test_a_resumed_finish_is_a_fresh_one_on_its_budget(
            self, n, seed, point, lam, steps, more, data):
        # a finish that fails on steps goes on, run on steps + more, to a
        # fresh finish's outcome on steps + more, bitwise, with the same
        # solves in all: only those after its first steps are made again
        problem, _ = self.instance(n, seed, point, lam)
        z = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                        min_size=n, max_size=n)))
        counts = FinishCounts()
        finish = Finish(problem, lam, z, counts)
        if finish.run(steps) is not None:
            return
        fresh_counts = FinishCounts()
        expected = Finish(problem, lam, z, fresh_counts).run(steps + more)
        polish = finish.run(steps + more)
        assert finish.budget == steps + more
        assert (polish is None) == (expected is None)
        if polish is not None:
            for a, b in zip(polish, expected):
                assert a.tobytes() == b.tobytes()
        assert counts == fresh_counts
        # a budget it has already spent makes no step
        assert finish.run(steps) is None
        assert counts == fresh_counts


class TestKeptInverse:
    """The steps after a finish's first on a support block large enough to
    pay for it: kkt._SupportInverse, updated as assets join and leave."""

    def test_joins_and_leaves_match_fresh_solves(self, rng):
        # about 60 of 100 assets, one change at a time: each is a rank-one
        # update, and the solve agrees with solve_support to 1e-10
        n = 100
        problem = factor_problem(n=n, m=200, seed=5)
        support = np.zeros(n, dtype=bool)
        support[rng.choice(n, 60, replace=False)] = True
        kept = kkt._SupportInverse(problem, support)
        for _ in range(40):
            support = support.copy()
            j = rng.integers(n)
            support[j] = not support[j]
            assert kept.move_to(support) == 0
            head = np.where(support, rng.choice([-1e-3, 1e-3], n), 0.0)
            x, nu = kept.solve(head)
            expected = solve_support(problem, support, head[support])
            np.testing.assert_allclose(x[support], expected[:-2], rtol=0,
                                       atol=1e-10)
            assert not x[~support].any()
            np.testing.assert_allclose(nu, expected[-2:], rtol=1e-10)

    def test_more_than_two_changes_refactor(self, rng):
        n = 40
        problem = factor_problem(n=n, m=120, seed=2)
        support = rng.random(n) < 0.5
        kept = kkt._SupportInverse(problem, support)
        moved = support.copy()
        moved[:3] = ~moved[:3]
        assert kept.move_to(moved) == 1
        head = np.where(moved, 1e-3, 0.0)
        x, _ = kept.solve(head)
        expected = solve_support(problem, moved, head[moved])
        np.testing.assert_allclose(x[moved], expected[:-2], rtol=0, atol=1e-12)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def instance():
        """n=120 and its lam, with the certified optimum, which holds 104
        assets."""
        n, m = 120, 240
        problem = factor_problem(n=n, m=m, seed=0)
        lam = initial_lambda(m, n)
        optimum = Finish(problem, lam, np.sign(solve(problem, SolverConfig(
            penalty=PenaltyConfig(kind="bb"),
            lambda_schedule=LambdaSchedule.fixed(lam))).weights)).run(1)
        return problem, lam, optimum

    def test_finish_on_the_kept_inverse_is_the_optimum(self):
        # n=120, a 104-asset optimum: one asset dropped or added takes a
        # finish of 2 to 8 steps, all but the first on the kept inverse, and
        # the certificate is bitwise the one of the optimum's own pattern;
        # the counts are those of the solves the finish made
        problem, lam, optimum = self.instance()
        n = problem.n
        signs = np.sign(optimum[0])
        assert np.count_nonzero(signs) == 104
        stopped = 0
        for i in range(0, n, 7):
            z = signs.copy()
            z[i] = 0.0 if signs[i] else 1.0
            fresh, kept_solves = [], []
            counts = kkt.FinishCounts()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kkt, "solve_support",
                              counting(fresh, kkt.solve_support))
                patch.setattr(kkt._SupportInverse, "_factor",
                              counting(fresh, kkt._SupportInverse._factor))
                patch.setattr(kkt._SupportInverse, "solve",
                              counting(kept_solves, kkt._SupportInverse.solve))
                polish = Finish(problem, lam, z, counts).run(12)
            assert polish is not None
            assert counts.updates == len(kept_solves) >= 1
            assert counts.factorizations == len(fresh)
            for a, b in zip(polish, optimum):
                assert a.tobytes() == b.tobytes()
            # a finish stopped after 2 steps goes on, on the kept inverse,
            # to the same certificate with the same solves in all
            resumed = FinishCounts()
            finish = Finish(problem, lam, z, resumed)
            polish = finish.run(2)
            if polish is None:
                stopped += 1
                polish = finish.run(12)
            for a, b in zip(polish, optimum):
                assert a.tobytes() == b.tobytes()
            assert resumed == counts
        assert stopped >= 5

    def test_a_dropped_finish_frees_its_kept_inverse(self, monkeypatch):
        # with the cyclic collector off, only reference counts free memory:
        # a finish stopped after 2 steps, with its n x n kept inverse, frees
        # it when it is dropped, as its steps hold no reference to it
        problem, lam, optimum = self.instance()
        signs = np.sign(optimum[0])
        built = []
        init = kkt._SupportInverse.__init__

        def recorded(self, *args):
            built.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(kkt._SupportInverse, "__init__", recorded)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(0, problem.n, 7):
                z = signs.copy()
                z[i] = 0.0 if signs[i] else 1.0
                Finish(problem, lam, z).run(2)
            alive = [ref for ref in built if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert len(built) == 18
        assert not alive


def counting(calls, function):
    def counted(*args):
        calls.append(args)
        return function(*args)
    return counted


class TestLineSearch:
    """kkt._line_search's closed form against an objective_value scan."""

    def test_picks_the_scan_minimum(self, rng):
        # on segments whose lowest candidate is not tied (to 1e-9), the
        # point is the one the scan of the candidates picks, bitwise
        problem = factor_problem(n=12, m=60, seed=3)
        checked = 0
        for _ in range(300):
            current = rng.standard_normal(12) * (rng.random(12) < 0.7)
            x = rng.standard_normal(12) * (rng.random(12) < 0.7)
            lam = float(rng.choice([0.0, 1e-3, 0.1, 1.0]))
            direction = x - current
            crossing = np.flatnonzero(current * x < 0)
            at = current[crossing] / -direction[crossing]
            candidates = np.append(np.unique(at), 1.0)
            values = np.array([objective_value(problem.C,
                                               current + t * direction, lam)
                               for t in candidates])
            lowest = np.sort(values)[:2]
            if lowest.size == 2 and lowest[1] - lowest[0] <= 1e-9 * lowest[0]:
                continue
            t = candidates[np.argmin(values)]
            expected = current + t * direction
            expected[crossing[at == t]] = 0.0
            if t == 1.0:
                expected = x
            point = kkt._line_search(problem, lam, current, x)
            assert point.tobytes() == expected.tobytes()
            checked += t < 1.0
        assert checked >= 50


class TestFinishSteps:
    """The attempt price that admm_engine rations certificates by."""

    def test_floor_is_todays_price_up_to_n_10(self):
        assert [attempt_floor(n) for n in (3, 6, 7, 9, 10, 12, 200, 500)] == [
            1, 2, 3, 3, 4, 4, 4, 4]

    def test_prices(self):
        # n=10: the floor of 4 x-steps, then STEP_COST per further step
        assert [finish_steps(10, 10, w) for w in (3, 4, 5, 6, 9, 17)] == [
            0, 1, 1, 2, 3, 7]
        # n=500, the 430-asset optimum: a first solve of 430^3/(3 * 500^2)
        # = 106 x-steps, then one step per STEP_COST x-steps
        assert finish_steps(500, 430, 106) == 0
        assert finish_steps(500, 430, 107) == 1
        assert finish_steps(500, 430, 107 + 2 * 57) == 58
        assert kkt.STEP_COST == 2



class TestInvert:
    """The fixed-rho x-step, which took the explicit inverse (kkt.invert)
    and now solves on the rho0 LU that every run of a solve shares.

    Each test hands the x-step a factorization that earlier solves have
    already used, as a later run finds it, and checks it against a fresh
    one.
    """

    @staticmethod
    def used(problem, rho, rng, solves=40):
        fact = factorize(problem, rho)
        for _ in range(solves):
            solve_x_update(fact, rng.standard_normal(problem.n),
                           rng.standard_normal(problem.n))
        return fact

    def test_block_equations_hold(self, rng):
        problem = random_problem(8, rng)
        for rho in (0.3, 1.0, 7.5):
            fact = self.used(problem, rho, rng)
            z = rng.standard_normal(8)
            y = rng.standard_normal(8)
            x = solve_x_update(fact, z, y)
            nu = recover_multiplier(problem, rho, z, y, x)
            stationarity, feasibility = kkt_residuals(problem, rho, z, y, x, nu)
            assert stationarity <= 1e-10
            assert feasibility <= 1e-10
            fresh = solve_x_update(factorize(problem, rho), z, y)
            assert x.tobytes() == fresh.tobytes()

    def test_feasibility_at_extreme_rho(self, rng):
        problem = factor_problem(n=6, m=60, seed=3)
        for rho in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            fact = self.used(problem, rho, rng)
            z = rng.standard_normal(6)
            y = rng.standard_normal(6)
            x = solve_x_update(fact, z, y)
            assert np.abs(problem.D @ x - problem.b).max() <= 1e-10
            fresh = solve_x_update(factorize(problem, rho), z, y)
            assert x.tobytes() == fresh.tobytes()

    def test_results_do_not_alias_scratch_or_each_other(self, rng):
        problem = random_problem(6, rng)
        fact = self.used(problem, 0.7, rng)
        z, y = rng.standard_normal(6), rng.standard_normal(6)
        first = solve_x_update(fact, z, y)
        kept = first.copy()
        second = solve_x_update(fact, y, z)
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, fact.rhs)
        np.testing.assert_array_equal(fact.rhs[6:], problem.b)
