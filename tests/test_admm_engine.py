import numpy as np
import pytest

import sparsefolio.admm_engine as engine
from conftest import factor_problem, identity_problem, mean_diag_rho, two_asset_problem
from sparsefolio.admm_engine import (
    SolverConfig,
    feasible_start,
    residual_norms,
    soft_threshold,
    solve,
    stopping_check,
    y_update,
    z_update,
)
from sparsefolio.kkt import factorize, solve_x_update
from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
from sparsefolio.model import constraint_violation, objective_value
from sparsefolio.oracle import enumerate_solve
from sparsefolio.penalty import PENALTY_KINDS, PenaltyConfig


def solver_config(problem, kind="rbb", lam=0.0, tol=1e-8, max_iter=100000,
                  **extra):
    return SolverConfig(
        tol=tol, max_iter=max_iter,
        penalty=PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem)),
        lambda_schedule=LambdaSchedule.fixed(lam), **extra)


class TestSoftThreshold:
    def test_shrinks_both_signs(self):
        out = soft_threshold(np.array([2.0, -2.0]), 0.5)
        np.testing.assert_array_equal(out, [1.5, -1.5])

    def test_dead_zone(self):
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0

    def test_tie_maps_to_exact_zero(self):
        out = soft_threshold(np.array([0.5, -0.5]), 0.5)
        assert out[0] == 0.0 and out[1] == 0.0
        assert not np.signbit(out[0])

    def test_zero_kappa_is_identity(self, rng):
        u = rng.standard_normal(10)
        np.testing.assert_array_equal(soft_threshold(u, 0.0), u)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.zeros(2), -0.1)


class TestZUpdate:
    def test_hand_value(self):
        out = z_update(np.array([1.0, -1.0]), np.zeros(2), 1.0, 0.5)
        np.testing.assert_array_equal(out, [0.5, -0.5])

    def test_no_regularization_passthrough(self, rng):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(z_update(x, y, 2.0, 0.0), x - y / 2.0,
                                   atol=1e-15)

    def test_proximal_optimality_against_perturbations(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        rho, lam = 1.7, 0.3
        z = z_update(x, y, rho, lam)

        def prox_objective(v):
            return lam * np.abs(v).sum(axis=-1) \
                + 0.5 * rho * ((v - (x - y / rho)) ** 2).sum(axis=-1)

        base = prox_objective(z)
        trials = z + rng.normal(0.0, 0.3, size=(10000, 6))
        assert (prox_objective(trials) >= base - 1e-12).all()


class TestYUpdate:
    def test_hand_value(self):
        out = y_update(np.zeros(2), 2.0, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_array_equal(out, [-2.0, 0.0])

    def test_consensus_leaves_y_alone(self, rng):
        y = rng.standard_normal(4)
        x = rng.standard_normal(4)
        out = y_update(y, 3.0, x, x)
        np.testing.assert_array_equal(out, y)
        np.testing.assert_array_equal(y_update(out, 3.0, x, x), y)


class TestResidualNorms:
    def test_primal_is_consensus_gap(self):
        r_norm, d_norm = residual_norms(np.zeros(2), np.array([1.0, 0.0]),
                                        np.zeros(2), 1.0)
        assert r_norm == 1.0
        assert d_norm == 0.0

    def test_dual_scales_with_rho(self, rng):
        z_prev = rng.standard_normal(3)
        z = rng.standard_normal(3)
        _, d_norm = residual_norms(z_prev, np.zeros(3), z, 4.0)
        assert d_norm == pytest.approx(4.0 * np.linalg.norm(z - z_prev))

    def test_homogeneous_in_scale(self, rng):
        x, z, z_prev = rng.standard_normal((3, 5))
        for s in (1e-3, 1e3):
            r_base, d_base = residual_norms(z_prev, x, z, 2.0)
            r_scaled, d_scaled = residual_norms(s * z_prev, s * x, s * z, 2.0)
            assert r_scaled == pytest.approx(s * r_base, rel=1e-12)
            assert d_scaled == pytest.approx(s * d_base, rel=1e-12)


class TestStoppingCheck:
    def test_zero_residuals_pass(self, rng):
        x, z, y = rng.standard_normal((3, 4))
        assert stopping_check(0.0, 0.0, x, z, y, 1e-6)

    def test_primal_violation_fails(self):
        x = np.array([3.0, 4.0])
        assert not stopping_check(2 * 1e-6 * 5.0, 0.0, x, np.zeros(2),
                                  np.zeros(2), 1e-6)

    def test_dual_floor_applies_at_zero_y(self):
        x = np.ones(2)
        assert stopping_check(0.0, 1e-20, x, x, np.zeros(2), 1e-6)

    def test_large_y_loosens_dual_test(self):
        x = np.ones(2)
        y = np.array([3e6, 4e6])
        assert stopping_check(0.0, 1.0, x, x, y, 1e-6)
        assert not stopping_check(0.0, 6.0, x, x, y, 1e-6)


class TestFeasibleStart:
    def test_matches_normal_equations(self, rng):
        problem = factor_problem(n=7, seed=5)
        x0 = feasible_start(problem)
        D, b = problem.D, problem.b
        expected = D.T @ np.linalg.solve(D @ D.T, b)
        np.testing.assert_allclose(x0, expected, atol=1e-14)
        assert np.abs(D @ x0 - b).max() <= 1e-12


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"max_iter": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveSmallCases:
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    def test_two_assets_fully_constrained(self, kind, lam):
        problem = two_asset_problem(e=0.15)
        result = solve(problem, solver_config(problem, kind=kind, lam=lam,
                                              max_iter=50))
        assert result.termination == "converged"
        np.testing.assert_allclose(result.weights.weights, [0.5, 0.5],
                                   atol=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    def test_symmetric_three_assets(self, lam):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        result = solve(problem, solver_config(problem, lam=lam))
        np.testing.assert_allclose(result.weights.weights, np.ones(3) / 3,
                                   atol=1e-7)
        oracle = enumerate_solve(problem, lam)
        np.testing.assert_allclose(oracle.weights, np.ones(3) / 3, atol=1e-10)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_random_instance_matches_oracle(self, kind):
        problem = factor_problem(n=6, m=60, seed=21, noise_scale=0.03)
        lam = initial_lambda(60, 6)
        oracle = enumerate_solve(problem, lam)
        result = solve(problem, solver_config(problem, kind=kind, lam=lam))
        gap = abs(result.objective - oracle.objective) \
            / max(1.0, abs(oracle.objective))
        assert result.termination == "converged"
        assert gap <= 1e-6


class TestSolveContracts:
    def test_converged_implies_stopping_inequalities(self):
        problem = factor_problem(n=5, seed=2)
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001))
        assert result.termination == "converged"
        state = result.final_state
        assert stopping_check(result.r_norm, result.d_norm, state.x, state.z,
                              state.y, 1e-8)

    def test_converged_implies_feasible(self):
        problem = factor_problem(n=6, seed=4)
        result = solve(problem, solver_config(problem, lam=0.002))
        ret_miss, budget_miss = constraint_violation(problem, result.weights)
        assert ret_miss <= 1e-8
        assert budget_miss <= 1e-8

    def test_objective_evaluated_at_final_weights(self):
        problem = factor_problem(n=5, seed=8)
        result = solve(problem, solver_config(problem, lam=0.003))
        expected = objective_value(problem.C, result.weights.weights, 0.003)
        assert result.objective == pytest.approx(expected, abs=1e-15)

    def test_consensus_gap_small_at_convergence(self):
        problem = factor_problem(n=5, seed=8)
        result = solve(problem, solver_config(problem, lam=0.003))
        assert result.consensus_gap <= 1e-6

    def test_max_iter_reported_not_raised(self):
        problem = factor_problem(n=6, seed=1)
        result = solve(problem, solver_config(problem, kind="fixed",
                                              max_iter=3, tol=1e-14))
        assert result.termination == "max_iter"
        assert result.iterations == 3

    def test_numerical_failure_reported(self, monkeypatch):
        problem = factor_problem(n=4, seed=6)
        calls = {"count": 0}
        real = solve_x_update

        def sabotaged(fact, z, y):
            calls["count"] += 1
            if calls["count"] == 3:
                return np.full(problem.n, np.nan)
            return real(fact, z, y)

        monkeypatch.setattr(engine, "solve_x_update", sabotaged)
        result = solve(problem, solver_config(problem, kind="fixed", lam=0.001))
        assert result.termination == "numerical_failure"
        assert result.iterations == 2
        assert np.isfinite(result.weights.weights).all()

    def test_callback_sees_every_iteration(self):
        problem = factor_problem(n=5, seed=3)
        seen = []
        result = solve(problem, solver_config(problem, lam=0.001),
                       callback=lambda s: seen.append(s.k))
        assert seen == list(range(result.iterations))

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_state_carries_residuals_and_ybar(self, kind):
        problem = factor_problem(n=5, seed=3)
        pen = PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem),
                            freeze_after=20)
        cfg = SolverConfig(tol=1e-8, max_iter=60, penalty=pen,
                           lambda_schedule=LambdaSchedule.fixed(0.001),
                           record_history=True)
        seen = []
        result = solve(problem, cfg, callback=seen.append)
        h = result.history
        assert len(seen) == result.iterations > pen.freeze_after + pen.nbar
        for state in seen:
            assert state.r_norm == h.r_norm[state.k]
            assert state.d_norm == h.d_norm[state.k]
            due = state.k % pen.nbar == 1 % pen.nbar \
                and state.k <= pen.freeze_after
            assert (state.ybar is not None) == (due and kind in ("bb", "rbb"))
        assert (seen[-1].r_norm, seen[-1].d_norm) \
            == (result.r_norm, result.d_norm)
        assert result.final_state is seen[-1]


class TestHistories:
    def test_lengths_match_iterations(self):
        problem = factor_problem(n=6, seed=10)
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001,
                                              record_history=True))
        h = result.history
        for series in (h.r_norm, h.d_norm, h.rho, h.lam, h.objective):
            assert len(series) == result.iterations
        assert h.r_norm[-1] == result.r_norm
        assert h.d_norm[-1] == result.d_norm
        assert all(np.isfinite(v) for v in h.objective)

    def test_objective_history_is_taken_at_x(self):
        problem = factor_problem(n=6, seed=10)
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001,
                                              record_history=True))
        assert result.history.objective[-1] == result.objective

    def test_rho_moves_only_on_cadence_iterations(self):
        problem = factor_problem(n=6, seed=10)
        nbar, freeze = 2, 40
        cfg = SolverConfig(
            tol=1e-10, max_iter=300,
            penalty=PenaltyConfig(kind="rb", rho0=1.0, nbar=nbar,
                                  freeze_after=freeze),
            lambda_schedule=LambdaSchedule.fixed(0.001),
            record_history=True)
        result = solve(problem, cfg)
        rho = result.history.rho
        changes = [k for k in range(1, len(rho)) if rho[k] != rho[k - 1]]
        assert changes, "expected rb to move rho on this instance"
        for k in changes:
            # history records the rho in force during iteration k, so a
            # change at position k was decided at iteration k-1
            assert (k - 1) % nbar == 1 % nbar
            assert (k - 1) <= freeze

    def test_rho_frozen_after_horizon(self):
        problem = factor_problem(n=6, seed=10)
        cfg = SolverConfig(
            tol=1e-12, max_iter=100,
            penalty=PenaltyConfig(kind="rb", rho0=1.0, freeze_after=5),
            lambda_schedule=LambdaSchedule.fixed(0.001),
            record_history=True)
        result = solve(problem, cfg)
        rho = result.history.rho
        assert len(set(rho[7:])) == 1

    def test_adaptive_lambda_history_is_nondecreasing(self):
        problem = factor_problem(n=8, m=60, seed=30)
        cfg = SolverConfig(
            tol=1e-8, max_iter=30000,
            penalty=PenaltyConfig(kind="rbb", rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.adaptive(initial_lambda(60, 8), sn=0),
            record_history=True)
        result = solve(problem, cfg)
        lam = result.history.lam
        assert all(a <= b for a, b in zip(lam, lam[1:]))
        assert result.lambda_final >= result.lambda_initial
        assert result.lambda_adjustments <= 50


class TestShortCountSource:
    def test_guard_counts_on_x_by_default(self, monkeypatch):
        problem = factor_problem(n=6, m=60, seed=30)
        recorded = []
        real = engine.count_short_positions

        def recording(weights):
            recorded.append(weights)
            return real(weights)

        monkeypatch.setattr(engine, "count_short_positions", recording)
        states = []
        cfg = SolverConfig(
            tol=1e-8, max_iter=40,
            penalty=PenaltyConfig(kind="fixed", rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.adaptive(initial_lambda(60, 6), sn=0))
        result = solve(problem, cfg, callback=states.append)
        # one guard call per iteration, plus the final short_count call
        assert len(recorded) == result.iterations + 1
        for rec, state in zip(recorded, states):
            np.testing.assert_array_equal(rec, state.x)


class TestTextbookEquivalence:
    def test_fixed_rho_matches_scaled_reference(self):
        problem = factor_problem(n=6, m=60, seed=77)
        lam, rho = 0.002, 0.5
        iters = 20

        mine = []
        cfg = SolverConfig(tol=1e-16, max_iter=iters,
                           penalty=PenaltyConfig(kind="fixed", rho0=rho),
                           lambda_schedule=LambdaSchedule.fixed(lam))
        solve(problem, cfg, callback=mine.append)
        assert len(mine) == iters

        # independent scaled-form loop: u is the scaled dual, x-step solved
        # by a fresh dense KKT solve each iteration
        n = problem.n
        x = feasible_start(problem)
        z = x.copy()
        u = np.zeros(n)
        K = np.zeros((n + 2, n + 2))
        K[:n, :n] = problem.C + rho * np.eye(n)
        K[:n, n:] = problem.D.T
        K[n:, :n] = problem.D
        for state in mine:
            rhs = np.concatenate([rho * (z - u), problem.b])
            x = np.linalg.solve(K, rhs)[:n]
            v = x + u
            z = np.sign(v) * np.maximum(np.abs(v) - lam / rho, 0.0)
            u = u + x - z
            assert np.abs(state.x - x).max() <= 1e-12
            assert np.abs(state.z - z).max() <= 1e-12
            assert np.abs(state.y + rho * u).max() <= 1e-12
