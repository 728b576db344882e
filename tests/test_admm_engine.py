import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import lu_factor, lu_solve

import sparsefolio.admm_engine as engine
from conftest import factor_problem, identity_problem, mean_diag_rho, two_asset_problem
from exhaustive_oracle import (
    enumerate_solve,
    fixed_rho_reference,
    kkt_violation,
    soft_threshold,
)
from sparsefolio.admm_engine import (
    SolverConfig,
    certificate_checkpoints,
    feasible_start,
    residual_norms,
    solve,
    stopping_check,
    y_update,
    z_update,
)
from sparsefolio.kkt import (
    KKT_TOL,
    Finish,
    attempt_floor,
    factorize,
    finish_steps,
    solve_x_update,
)
from sparsefolio.lambda_controller import MAX_ADJUSTMENTS, LambdaSchedule, initial_lambda
from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import build_problem, objective_value
from sparsefolio.penalty import (
    FREEZE_AFTER,
    NBAR,
    PENALTY_KINDS,
    REFACTOR_RATIO,
    RHO_MAX,
    RHO_MIN,
    PenaltyConfig,
    PenaltyState,
    initial_rho,
)
from sparsefolio.suites import SUITES, make_suite_instances


def solver_config(problem, kind="rbb", lam=0.0, tol=1e-8, max_iter=100000,
                  **extra):
    return SolverConfig(
        tol=tol, max_iter=max_iter,
        penalty=PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem)),
        lambda_schedule=LambdaSchedule.fixed(lam), **extra)


@pytest.fixture
def no_certificate(monkeypatch):
    """Every certificate attempt fails, as where z's pattern stays more block
    solves from the optimum's than the budget allows: runs end by the
    residual test or max_iter only, and their iterates are those of the
    engine without certificates."""
    monkeypatch.setattr(engine, "Finish", FailingFinish)


class FailingFinish(Finish):
    """A kkt.Finish whose every run fails."""

    def run(self, steps):
        self.budget = max(self.budget, steps)
        return None


def assert_converged_contract(problem, result, lam, tol):
    """A converged result passes the residual test or is certified; a
    certified one is, to 1e-12, the oracle's optimum where n <= 12."""
    assert result.termination == "converged"
    state = result.final_state
    if not result.certified:
        assert stopping_check(state.r_norm, state.d_norm, state.x, state.z,
                              state.y, tol)
        return
    assert state.x is state.z is result.weights
    assert kkt_violation(problem, lam, result.weights) <= KKT_TOL
    if problem.n <= 12:
        oracle = enumerate_solve(problem, lam)
        assert np.abs(result.weights - oracle.weights).max() <= 1e-12


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(u=hnp.arrays(np.float64, st.integers(1, 8)),
           kappa=st.floats(min_value=0.0), tie=st.integers(0, 8))
    @example(u=np.array([5e-324, -5e-324, 0.0, -0.0, 2e-308]), kappa=5e-324,
             tie=8)
    @example(u=np.array([0.5, -0.5, np.inf, -np.inf, np.nan]), kappa=0.5,
             tie=8)
    def test_matches_sign_times_shrunk_magnitude(self, u, kappa, tie):
        # tie < len(u) sets kappa to |u[tie]|, the edge of the dead zone
        if tie < len(u) and np.isfinite(u[tie]):
            kappa = abs(float(u[tie]))
        with np.errstate(invalid="ignore"):  # inf - inf when kappa is inf
            out = soft_threshold(u, kappa)
            ref = np.sign(u) * np.maximum(np.abs(u) - kappa, 0.0)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert (out[~nan] == ref[~nan]).all()


def z_step(x, y, rho, lam):
    """z_update at the float (rho, lam), as the engine calls it."""
    return z_update(x, y, rho, lam)


# every float64, subnormals, signed zeros, NaN and infinities included
entries = hnp.arrays(np.float64, st.shared(st.integers(1, 8), key="n"))
specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2e-308, np.nan, np.inf,
                     -np.inf])


class TestZUpdate:
    def test_hand_value(self):
        out = z_step(np.array([1.0, -1.0]), np.zeros(2), 1.0, 0.5)
        np.testing.assert_array_equal(out, [0.5, -0.5])

    def test_no_regularization_passthrough(self, rng):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(z_step(x, y, 2.0, 0.0), x - y / 2.0,
                                   atol=1e-15)

    def test_proximal_optimality_against_perturbations(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        rho, lam = 1.7, 0.3
        z = z_step(x, y, rho, lam)

        def prox_objective(v):
            return lam * np.abs(v).sum(axis=-1) \
                + 0.5 * rho * ((v - (x - y / rho)) ** 2).sum(axis=-1)

        base = prox_objective(z)
        trials = z + rng.normal(0.0, 0.3, size=(10000, 6))
        assert (prox_objective(trials) >= base - 1e-12).all()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(x=entries, y=entries, rho=st.floats(RHO_MIN, RHO_MAX),
           lam=st.one_of(st.just(0.0), st.floats(1e-12, 1e3)))
    @example(x=specials, y=specials[::-1].copy(), rho=RHO_MIN, lam=0.0)
    @example(x=specials, y=np.zeros(8), rho=1.0, lam=0.0)
    @example(x=specials, y=-specials, rho=RHO_MAX, lam=1e3)
    def test_bitwise_equal_to_soft_threshold(self, x, y, rho, lam):
        with np.errstate(all="ignore"):
            expected = soft_threshold(x - y / rho, lam / rho)
            assert z_step(x, y, rho, lam).tobytes() == expected.tobytes()

    def test_result_shares_no_memory(self, rng):
        x, y = rng.standard_normal((2, 5))
        first = z_update(x, y, 1.3, 0.2)
        kept = first.copy()
        second = z_update(first, y, 1.3, 0.2)
        assert not np.shares_memory(first, x) and not np.shares_memory(first, y)
        assert not np.shares_memory(second, y)
        assert not np.shares_memory(second, first)
        assert first.tobytes() == kept.tobytes()


class TestYUpdate:
    def test_hand_value(self):
        out = y_update(np.zeros(2), 2.0, np.zeros(2) - np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [-2.0, 0.0])

    def test_consensus_leaves_y_alone(self, rng):
        y = rng.standard_normal(4)
        x = rng.standard_normal(4)
        out = y_update(y, 3.0, x - x)
        np.testing.assert_array_equal(out, y)
        np.testing.assert_array_equal(y_update(out, 3.0, x - x), y)


class TestResidualNorms:
    def test_primal_is_consensus_gap(self):
        r_norm, d_norm = residual_norms(np.zeros(2) - np.array([1.0, 0.0]),
                                        np.zeros(2) - np.zeros(2), 1.0)
        assert r_norm == 1.0
        assert d_norm == 0.0

    def test_dual_scales_with_rho(self, rng):
        z_prev = rng.standard_normal(3)
        z = rng.standard_normal(3)
        _, d_norm = residual_norms(z - np.zeros(3), z - z_prev, 4.0)
        assert d_norm == pytest.approx(4.0 * np.linalg.norm(z - z_prev))

    def test_homogeneous_in_scale(self, rng):
        x, z, z_prev = rng.standard_normal((3, 5))
        for s in (1e-3, 1e3):
            r_base, d_base = residual_norms(z - x, z - z_prev, 2.0)
            r_scaled, d_scaled = residual_norms(s * z - s * x,
                                                s * z - s * z_prev, 2.0)
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
        np.testing.assert_allclose(result.weights, [0.5, 0.5],
                                   atol=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    def test_symmetric_three_assets(self, lam):
        problem = identity_problem(mu=(0.1, 0.2, 0.3), e=0.2)
        result = solve(problem, solver_config(problem, lam=lam))
        np.testing.assert_allclose(result.weights, np.ones(3) / 3,
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
        # converged means the residual test passed or a certificate holds
        problem = factor_problem(n=5, seed=2)
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001))
        assert result.certified
        assert_converged_contract(problem, result, 0.001, 1e-8)

    def test_converged_without_certificate_passes_the_residual_test(
            self, no_certificate):
        problem = factor_problem(n=5, seed=2)
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001))
        assert not result.certified
        assert_converged_contract(problem, result, 0.001, 1e-8)

    def test_converged_implies_feasible(self):
        problem = factor_problem(n=6, seed=4)
        result = solve(problem, solver_config(problem, lam=0.002))
        w = result.weights
        assert abs(float(w @ problem.mu) - problem.e) <= 1e-8
        assert abs(float(w.sum()) - 1.0) <= 1e-8

    def test_objective_evaluated_at_final_weights(self):
        problem = factor_problem(n=5, seed=8)
        result = solve(problem, solver_config(problem, lam=0.003))
        expected = objective_value(problem.C, result.weights, 0.003)
        assert result.objective == pytest.approx(expected, abs=1e-15)

    def test_consensus_gap_small_at_convergence(self):
        problem = factor_problem(n=5, seed=8)
        result = solve(problem, solver_config(problem, lam=0.003))
        state = result.final_state
        assert state.x is result.weights
        assert np.abs(state.x - state.z).max() <= 1e-6

    def test_max_iter_reported_not_raised(self):
        problem = factor_problem(n=6, seed=1)
        result = solve(problem, solver_config(problem, kind="fixed",
                                              max_iter=3, tol=1e-14))
        assert result.termination == "max_iter"
        assert result.iterations == 3

    @staticmethod
    def solve_with_bad_xstep(monkeypatch, bad, kind="fixed", bad_call=3,
                                   callback=None):
        problem = factor_problem(n=4, seed=6)
        calls = {"count": 0}
        real = solve_x_update

        def sabotaged(fact, z, y):
            calls["count"] += 1
            if calls["count"] == bad_call:
                return bad.copy()
            return real(fact, z, y)

        monkeypatch.setattr(engine, "solve_x_update", sabotaged)
        return solve(problem, solver_config(problem, kind=kind, lam=0.001),
                     callback=callback)

    def test_numerical_failure_reported(self, monkeypatch):
        result = self.solve_with_bad_xstep(monkeypatch, np.full(4, np.nan))
        assert result.termination == "numerical_failure"
        assert result.iterations == 2
        assert np.isfinite(result.weights).all()

    @pytest.mark.parametrize("bad", [
        np.full(4, np.inf),
        np.array([0.25, np.nan, 0.25, 0.5]),
        np.array([0.25, 0.25, np.inf, 0.5]),
    ], ids=["all-inf", "one-nan", "one-inf"])
    def test_numerical_failure_on_any_bad_entry(self, monkeypatch, bad):
        # an infinite x entry passes the shrinkage into z, so z - x is
        # inf - inf: the solve reports it, without numpy's invalid-value warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = self.solve_with_bad_xstep(monkeypatch, bad)
        assert result.termination == "numerical_failure"
        assert result.iterations == 2
        assert np.isfinite(result.weights).all()

    def test_callback_sees_every_iteration(self):
        problem = factor_problem(n=5, seed=3)
        seen = []
        result = solve(problem, solver_config(problem, lam=0.001),
                       callback=lambda s: seen.append(s.k))
        assert seen == list(range(result.iterations))

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_state_carries_residuals_and_ybar(self, no_certificate, kind):
        # tol=1e-16 keeps every uncertified kind running past the freeze horizon
        problem = factor_problem(n=5, seed=11)
        pen = PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem))
        cfg = SolverConfig(tol=1e-16, max_iter=FREEZE_AFTER + 10, penalty=pen,
                           lambda_schedule=LambdaSchedule.fixed(0.001))
        seen = []
        result = solve(problem, cfg, callback=seen.append)
        assert len(seen) == result.iterations > FREEZE_AFTER + NBAR
        for prev, state in zip(seen, seen[1:]):
            assert (state.r_norm, state.d_norm) \
                == residual_norms(state.z - state.x, state.z - prev.z,
                                  state.rho)
        for state in seen:
            due = state.k % NBAR == 1 % NBAR and state.k <= FREEZE_AFTER
            assert (state.ybar is not None) == (due and kind in ("bb", "rbb"))
        assert result.final_state is seen[-1]


def assert_same_state(mine, theirs):
    """Field by field, arrays compared as bytes."""
    assert mine._fields == theirs._fields
    for name, a, b in zip(mine._fields, mine, theirs):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert type(a) is type(b) and a.tobytes() == b.tobytes(), name
        else:
            assert a == b and type(a) is type(b), name


class TestFinalStateWithoutCallback:
    """A run commits one IterateState per iteration whether or not a
    callback reads it; the state it returns without a callback must carry
    what a callback would have seen last."""

    @staticmethod
    def both(run):
        seen = []
        with_callback = run(seen.append)
        without = run(None)
        if seen:  # none when the first x-step fails
            assert with_callback.final_state is seen[-1]
        assert without.termination == with_callback.termination
        assert without.iterations == with_callback.iterations
        assert without.rho_final == with_callback.rho_final
        assert without.weights.tobytes() == with_callback.weights.tobytes()
        assert_same_state(without.final_state, with_callback.final_state)
        return without

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_converged(self, no_certificate, kind):
        # without certificates this instance converges on a cadence iteration
        # under bb and rbb, so the state built after the loop carries that
        # iteration's ybar
        problem = factor_problem(n=6, seed=4)
        cfg = solver_config(problem, kind=kind, lam=0.001)
        result = self.both(lambda cb: solve(problem, cfg, callback=cb))
        assert result.termination == "converged"
        assert (result.final_state.ybar is not None) == (kind in ("bb", "rbb"))

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_certified(self, kind):
        problem = factor_problem(n=6, seed=4)
        cfg = solver_config(problem, kind=kind, lam=0.001)
        result = self.both(lambda cb: solve(problem, cfg, callback=cb))
        assert result.termination == "converged" and result.certified

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("max_iter", [1, 2, 7, FREEZE_AFTER + 10])
    def test_max_iter(self, no_certificate, kind, max_iter):
        # odd max_iter ends on a cadence iteration, even on one between
        problem = factor_problem(n=5, seed=11)
        cfg = solver_config(problem, kind=kind, lam=0.001, tol=1e-16,
                            max_iter=max_iter)
        result = self.both(lambda cb: solve(problem, cfg, callback=cb))
        assert result.termination == "max_iter"
        assert result.final_state.k == max_iter - 1

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("bad_call", [1, 3, 4])
    def test_numerical_failure(self, monkeypatch, kind, bad_call):
        # the bad x-step follows a cadence iteration (3) or not (1, 4)
        result = self.both(
            lambda cb: TestSolveContracts.solve_with_bad_xstep(
                monkeypatch, np.full(4, np.nan), kind=kind, bad_call=bad_call,
                callback=cb))
        assert result.termination == "numerical_failure"
        assert result.final_state.k == bad_call - 2

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_adaptive_budget_runs_out(self, kind):
        problem, cfg = shorting_adaptive_case()
        cfg = replace(cfg, penalty=replace(cfg.penalty, kind=kind))
        lam0 = cfg.lambda_schedule.lambda_current
        first = solve(problem, replace(cfg, lambda_schedule=LambdaSchedule.fixed(lam0)))
        assert first.termination == "converged"
        cfg = replace(cfg, max_iter=first.iterations + 5)
        result = self.both(lambda cb: solve(problem, cfg, callback=cb))
        assert result.termination == "max_iter"
        assert result.lambda_adjustments == 1
        assert result.final_state.k == 4


class TestPenaltyUpdateCalls:
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("tol, max_iter", [(1e-8, 100000),
                                               (1e-16, FREEZE_AFTER + 10)])
    def test_one_call_per_due_iteration(self, monkeypatch, kind, tol, max_iter):
        problem = factor_problem(n=5, seed=11)
        asked = []
        real = PenaltyState.update

        def spy(self, state):
            asked.append(state.k)
            return real(self, state)

        monkeypatch.setattr(PenaltyState, "update", spy)
        result = solve(problem, solver_config(problem, kind=kind, lam=0.001,
                                              tol=tol, max_iter=max_iter))
        if kind == "fixed":
            assert asked == []
            return
        # a converged run stops before its last iteration's update
        last = result.iterations - (result.termination == "converged")
        assert asked == list(range(1, min(last, FREEZE_AFTER + 1), 2))
        assert asked


class TestRefactorization:
    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    def test_spectral_refactors_only_on_moves_by_the_ratio(self, monkeypatch,
                                                           kind):
        problem = factor_problem(n=6, seed=20)
        cfg = solver_config(problem, kind=kind, lam=0.001)
        rhos = []
        real = engine.factorize

        def spy(problem, rho):
            rhos.append(rho)
            return real(problem, rho)

        monkeypatch.setattr(engine, "factorize", spy)
        result = solve(problem, cfg)
        assert result.termination == "converged"
        assert rhos[0] == cfg.penalty.rho0
        assert rhos[-1] == result.rho_final
        # on this instance rho moves at least twice
        assert len(rhos) >= 3
        for old, new in zip(rhos, rhos[1:]):
            assert new >= REFACTOR_RATIO * old or new <= old / REFACTOR_RATIO


    def test_rb_takes_the_lu_of_a_rho_it_returns_to(self, monkeypatch):
        # rb doubles and halves rho: here it climbs from rho0, steps back
        # once and up again, and so returns twice to a rho it just left
        problem = factor_problem(n=6, seed=18)
        cfg = SolverConfig(tol=1e-6, penalty=PenaltyConfig(kind="rb"),
                           lambda_schedule=LambdaSchedule.fixed(
                               initial_lambda(60, 6)))
        made, steps = [], []
        real_factorize, real_x_update = engine.factorize, engine.solve_x_update

        def spy_factorize(problem, rho):
            made.append(real_factorize(problem, rho))
            return made[-1]

        def spy_x_update(factorization, z, y):
            x = real_x_update(factorization, z, y)
            steps.append((factorization, z.copy(), y.copy(), x))
            return x

        monkeypatch.setattr(engine, "factorize", spy_factorize)
        monkeypatch.setattr(engine, "solve_x_update", spy_x_update)
        states = []
        result = solve(problem, cfg, callback=states.append)
        assert result.certified
        rhos = [s.rho for s in states]
        visits = [rhos[0]] + [new for old, new in zip(rhos, rhos[1:])
                              if new != old]
        assert len(set(visits)) < len(visits)
        # one getrf per rho value, in the order of first visits
        assert [f.rho for f in made] == list(dict.fromkeys(visits))
        # each x-step, on a kept LU or not, is a fresh LU's, bitwise
        used, previous, kept = set(), None, 0
        for factorization, z, y, x in steps:
            if factorization is not previous:
                kept += id(factorization) in used
                used.add(id(factorization))
                previous = factorization
            fresh = real_x_update(real_factorize(problem, factorization.rho),
                                  z, y)
            assert x.tobytes() == fresh.tobytes()
        assert kept == len(visits) - len(set(visits))


class TestHistories:
    """Per-iteration series, as a caller collects them through the callback."""

    def test_lengths_match_iterations(self):
        problem = factor_problem(n=6, seed=10)
        seen = []
        result = solve(problem, solver_config(problem, kind="rb", lam=0.001),
                       callback=seen.append)
        assert len(seen) == result.iterations
        assert result.final_state is seen[-1]
        assert all(np.isfinite([s.r_norm, s.d_norm, s.rho, s.lam]).all()
                   for s in seen)

    def test_rho_moves_only_on_cadence_iterations(self):
        problem = factor_problem(n=6, seed=10)
        cfg = SolverConfig(
            tol=1e-10, max_iter=300,
            penalty=PenaltyConfig(kind="rb", rho0=1.0),
            lambda_schedule=LambdaSchedule.fixed(0.001))
        seen = []
        solve(problem, cfg, callback=seen.append)
        rho = [s.rho for s in seen]
        changes = [k for k in range(1, len(rho)) if rho[k] != rho[k - 1]]
        assert changes, "expected rb to move rho on this instance"
        for k in changes:
            # a state carries the rho in force during iteration k, so a
            # change at position k was decided at iteration k-1
            assert (k - 1) % NBAR == 1 % NBAR

    def test_rho_frozen_after_horizon(self, monkeypatch, no_certificate):
        problem = factor_problem(n=5, seed=11)
        asked = []
        real = PenaltyState.update

        def spy(self, state):
            asked.append(state.k)
            return real(self, state)

        monkeypatch.setattr(PenaltyState, "update", spy)
        cfg = SolverConfig(
            tol=1e-16, max_iter=FREEZE_AFTER + 100,
            penalty=PenaltyConfig(kind="rb", rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.fixed(0.001))
        seen = []
        result = solve(problem, cfg, callback=seen.append)
        assert result.iterations == FREEZE_AFTER + 100
        # every cadence iteration up to the horizon asks, none after it
        assert asked == list(range(1, FREEZE_AFTER + 1, 2))
        # the last update, at iteration FREEZE_AFTER - 1, takes effect at
        # FREEZE_AFTER; from there on rho stays put
        assert len({s.rho for s in seen[FREEZE_AFTER:]}) == 1

    def test_adaptive_lambda_history_is_nondecreasing(self):
        problem = factor_problem(n=8, m=60, seed=30)
        cfg = SolverConfig(
            tol=1e-8, max_iter=30000,
            penalty=PenaltyConfig(kind="rbb", rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.adaptive(initial_lambda(60, 8), sn=0))
        seen = []
        result = solve(problem, cfg, callback=seen.append)
        lam = [s.lam for s in seen]
        assert all(a <= b for a, b in zip(lam, lam[1:]))
        assert result.lambda_final >= cfg.lambda_schedule.lambda_current
        assert result.lambda_adjustments <= MAX_ADJUSTMENTS


def shorting_adaptive_case(seed=0):
    """An adaptive solve whose first run ends with a short, so lambda moves."""
    mu = factor_problem(n=6, m=60, seed=seed).mu
    problem = factor_problem(n=6, m=60, seed=seed, e=float(mu.max()))
    cfg = SolverConfig(
        tol=1e-8, max_iter=30000,
        penalty=PenaltyConfig(kind="fixed", rho0=mean_diag_rho(problem)),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(60, 6), sn=0))
    return problem, cfg


class TestShortCountSource:
    def test_guard_counts_once_per_converged_run_on_its_z(self, monkeypatch):
        problem, cfg = shorting_adaptive_case()
        recorded = []
        real = engine.count_short_positions

        def recording(weights):
            recorded.append(weights)
            return real(weights)

        monkeypatch.setattr(engine, "count_short_positions", recording)
        states = []
        result = solve(problem, cfg, callback=states.append)
        assert result.termination == "converged"
        assert result.lambda_adjustments >= 1
        # each run restarts k at 0; the guard sees only the end of each run
        ends = [prev for prev, state in zip(states, states[1:]) if state.k == 0]
        ends.append(states[-1])
        assert len(ends) == result.lambda_adjustments + 1
        assert sum(state.k + 1 for state in ends) == result.iterations
        # one count per run on its final z, none on the weights
        assert len(recorded) == len(ends)
        for rec, end in zip(recorded, ends):
            assert rec is end.z
        assert real(ends[0].z) > cfg.lambda_schedule.sn
        assert real(ends[-1].z) <= cfg.lambda_schedule.sn

    def test_adaptive_ends_on_the_fixed_solve_at_its_final_lambda(self):
        problem, cfg = shorting_adaptive_case()
        adaptive = solve(problem, cfg)
        assert adaptive.lambda_adjustments >= 1
        fixed = solve(problem, replace(
            cfg, lambda_schedule=LambdaSchedule.fixed(adaptive.lambda_final)))
        assert fixed.termination == adaptive.termination == "converged"
        assert adaptive.weights.tobytes() == fixed.weights.tobytes()
        for mine, theirs in zip(adaptive.final_state, fixed.final_state):
            if isinstance(mine, np.ndarray):
                assert mine.tobytes() == theirs.tobytes()
            else:
                assert mine == theirs
        assert adaptive.rho_final == fixed.rho_final
        assert adaptive.iterations > fixed.iterations

    @pytest.mark.parametrize("extra", [0, 5])
    def test_max_iter_bounds_all_runs_together(self, extra):
        problem, cfg = shorting_adaptive_case()
        lam0 = cfg.lambda_schedule.lambda_current
        first = solve(problem, replace(cfg, lambda_schedule=LambdaSchedule.fixed(lam0)))
        assert first.termination == "converged"
        # the first run converges, the guard moves lambda, and the re-solve
        # finds no budget (extra = 0) or too little (extra = 5) left
        budget = first.iterations + extra
        result = solve(problem, replace(cfg, max_iter=budget))
        assert result.termination == "max_iter"
        assert result.iterations == budget
        assert result.lambda_adjustments == 1
        assert result.lambda_final > lam0
        assert result.final_state.k == (first.iterations if extra == 0 else extra) - 1


class TestMoveBudget:
    def test_solve_stops_lambda_after_max_adjustments(self, monkeypatch):
        # every run reports one short more than tolerated, so only the
        # budget ends the moves; lambda0 * 2**50 is about 1e-5, at which
        # every run still converges
        sn = 1
        monkeypatch.setattr(engine, "count_short_positions",
                            lambda weights: sn + 1)
        problem = factor_problem(n=5, seed=4)
        lam0 = 1e-20
        cfg = SolverConfig(
            tol=1e-8, max_iter=100000,
            penalty=PenaltyConfig(kind="bb", rho0=mean_diag_rho(problem)),
            lambda_schedule=LambdaSchedule.adaptive(lam0, sn=sn))
        states = []
        result = solve(problem, cfg, callback=states.append)
        moves = sum(a.lam != b.lam for a, b in zip(states, states[1:]))
        assert MAX_ADJUSTMENTS == 50
        assert moves == MAX_ADJUSTMENTS
        assert result.lambda_adjustments == MAX_ADJUSTMENTS
        assert result.lambda_final == lam0 * 2.0**MAX_ADJUSTMENTS
        assert result.termination == "converged"


def runs_of(states):
    """An adaptive solve's callback states, split into its runs."""
    runs = []
    for state in states:
        if state.k == 0:
            runs.append([])
        runs[-1].append(state)
    return runs


def assert_states_bitwise_equal(mine, theirs):
    for a, b in zip(mine, theirs, strict=True):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


class TestSharedRho0Factorization:
    """solve factors the block at rho0 once and hands its LU to every run of
    an adaptive solve, under every penalty kind, and each run is, bitwise,
    the fixed-lambda solve at its lambda."""

    def test_each_run_is_the_fixed_lambda_solve(self):
        problem, cfg = shorting_adaptive_case(9)
        states = []
        result = solve(problem, cfg, callback=states.append)
        runs = runs_of(states)
        assert result.lambda_adjustments >= 1
        assert len(runs) == result.lambda_adjustments + 1
        for run in runs:
            alone = []
            solve(problem, replace(cfg, lambda_schedule=LambdaSchedule.fixed(
                run[0].lam)), callback=alone.append)
            assert len(alone) >= len(run)
            for mine, theirs in zip(run, alone):
                assert_states_bitwise_equal(mine, theirs)


    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_unset_rho0_starts_every_run_at_the_kinds_start(self, monkeypatch,
                                                            kind):
        problem, cfg = shorting_adaptive_case(9)
        cfg = replace(cfg, penalty=PenaltyConfig(kind=kind))
        rho0 = initial_rho(cfg.penalty, problem.C)
        assert (rho0 == 1.0) == (kind in ("bb", "rbb"))
        rhos = []
        real = engine.factorize

        def spy(problem, rho):
            rhos.append(rho)
            return real(problem, rho)

        monkeypatch.setattr(engine, "factorize", spy)
        states = []
        result = solve(problem, cfg, callback=states.append)
        assert result.lambda_adjustments >= 1
        assert rhos[0] == rho0
        assert [run[0].rho for run in runs_of(states)] == [rho0] * (
            result.lambda_adjustments + 1)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_a_start_factored_at_another_target_serves_every_target(self,
                                                                   kind):
        # the block does not depend on the target, and each run writes its
        # own b into the start's scratch: a solve handed one rho0 LU for
        # all targets is, bitwise, the solve that factors its own
        problem, cfg = shorting_adaptive_case(9)
        cfg = replace(cfg, penalty=PenaltyConfig(kind=kind))
        start = factorize(problem.at(float(problem.mu.min())),
                          initial_rho(cfg.penalty, problem.C))
        middle = 0.5 * float(problem.mu.min() + problem.mu.max())
        # lambda moves at the top mean, problem.e
        for target in (problem.e, middle, problem.e):
            shared, alone = [], []
            mine = solve(problem.at(target), cfg, callback=shared.append,
                         start=start)
            theirs = solve(build_problem(problem.mu, problem.C, target), cfg,
                           callback=alone.append)
            assert len(shared) == len(alone) == mine.iterations
            for a, b in zip(shared, alone):
                assert_states_bitwise_equal(a, b)
            assert mine.weights.tobytes() == theirs.weights.tobytes()
            assert (mine.lambda_adjustments, mine.finish) == (
                theirs.lambda_adjustments, theirs.finish)
            assert mine.lambda_adjustments >= (target == problem.e)


class TestBenchSuiteFeasibility:
    """Every x-step is one getrs on the LU of the KKT block, so Dx = b holds
    to the LU solve's backward error.  The worst |Dx - b| over the bench
    suites' 60 solves is 2.2e-16 (illcond trial 0, rbb); the bound leaves a
    factor of about 45."""

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_final_weights_meet_the_constraints(self, suite, kind):
        for instance in make_suite_instances(suite, 5, 0):
            problem = instance.problem
            cfg = SolverConfig(tol=1e-6, max_iter=5000,
                               penalty=PenaltyConfig(kind=kind),
                               lambda_schedule=LambdaSchedule.fixed(instance.lam))
            weights = solve(problem, cfg).weights
            assert np.abs(problem.D @ weights - problem.b).max() <= 1e-14


class TestStepsAtTheStatesRhoAndLambda:
    """Along a whole solve, every committed iterate is the scalar steps'
    result at the float rho and lam its state carries, bitwise: the steps
    run at the rho of the latest update and, after a lambda move, at the
    new run's lambda.  The one exception is the last iterate of a run that
    a certificate ends: it is the optimum a kkt.Finish from the stepped z
    returns, with x = z and y = -lam*g.  A certificate found within a
    budget is found, bitwise, within any larger one (TestFinishProperty in
    test_kkt.py), so 64 block solves, more than any attempt here gets,
    stand for the attempt's own budget."""

    @staticmethod
    def trajectory(problem, cfg):
        seen = []
        result = solve(problem, cfg, callback=seen.append)
        n = problem.n
        factors = {}
        ends = []  # positions of the iterates a certificate replaced
        for i, state in enumerate(seen):
            if state.k == 0:
                z_prev, y_prev = feasible_start(problem), np.zeros(n)
            rho, lam = state.rho, state.lam
            if rho not in factors:
                factors[rho] = lu_factor(np.block(
                    [[problem.C + rho * np.eye(n), problem.D.T],
                     [problem.D, np.zeros((2, 2))]]))
            x = lu_solve(factors[rho],
                         np.concatenate([rho * z_prev + y_prev, problem.b]))[:n]
            z = soft_threshold(x - y_prev / rho, lam / rho)
            if state.z.tobytes() != z.tobytes():
                ends.append(i)
                optimum, _, g = Finish(problem, lam, z).run(64)
                assert state.x is state.z
                assert state.x.tobytes() == optimum.tobytes()
                assert state.y.tobytes() == (-lam * g).tobytes()
                continue
            assert state.x.tobytes() == x.tobytes()
            y = y_update(y_prev, rho, state.z - state.x)
            assert state.y.tobytes() == y.tobytes()
            z_prev, y_prev = state.z, state.y
        # a certificate ends its run: the next iterate, if any, starts a run
        assert all(i + 1 == len(seen) or seen[i + 1].k == 0 for i in ends)
        assert (ends[-1:] == [len(seen) - 1]) == result.certified
        return result, seen

    @pytest.mark.parametrize("kind", ["rb", "bb", "rbb"])
    def test_rho_changes(self, kind):
        problem = factor_problem(n=6, seed=20)
        result, seen = self.trajectory(
            problem, solver_config(problem, kind=kind, lam=0.001))
        assert result.termination == "converged"
        assert len({state.rho for state in seen}) > 2

    def test_lambda_moves(self):
        # rbb moves rho (by REFACTOR_RATIO or more) on this instance
        problem, cfg = shorting_adaptive_case(seed=9)
        cfg = replace(cfg, penalty=replace(cfg.penalty, kind="rbb"))
        result, seen = self.trajectory(problem, cfg)
        assert result.termination == "converged"
        assert result.lambda_adjustments >= 1
        assert len({state.lam for state in seen}) == result.lambda_adjustments + 1
        assert len({state.rho for state in seen}) > 2


class TestTextbookEquivalence:
    def test_fixed_rho_matches_scaled_reference(self, no_certificate):
        # a certificate would end this run before its 20th iterate
        problem = factor_problem(n=6, m=60, seed=77)
        lam, rho = 0.002, 0.5
        iters = 20

        mine = []
        cfg = SolverConfig(tol=1e-16, max_iter=iters,
                           penalty=PenaltyConfig(kind="fixed", rho0=rho),
                           lambda_schedule=LambdaSchedule.fixed(lam))
        solve(problem, cfg, callback=mine.append)
        assert len(mine) == iters

        for state, (x, z, u) in zip(mine,
                                    fixed_rho_reference(problem, lam, rho, iters)):
            assert np.abs(state.x - x).max() <= 1e-12
            assert np.abs(state.z - z).max() <= 1e-12
            assert np.abs(state.y + rho * u).max() <= 1e-12


class TestCertifiedStop:
    """A run tries a kkt.Finish from z at the half-octave checkpoints
    k = round(attempt_floor(n) * 2^(j/2)) whose sign pattern repeats the
    previous iteration's, and at the residual stop.  An attempt at
    iteration k may make finish_steps(n, |supp z|, work) block solves,
    where work is the run's k + 1 x-steps, plus (n + 2)/3 per
    refactorization at the residual stop; it is skipped where that is 0, or
    where z's pattern is that of the last failed attempt and that attempt's
    budget was at least as large; a retry of that pattern goes on from the
    failed kkt.Finish, whose run(steps) has the outcome, bitwise, of a
    fresh finish's on that budget.  A certificate ends the run at the
    optimum."""

    @staticmethod
    def attempts(problem, cfg, monkeypatch):
        """The solve, its states, and the k, z's sign pattern, budget and
        outcome of every attempt."""
        seen, tried = [], []

        class Spy(Finish):
            def run(self, steps):
                k = len(seen)  # the finish runs before iteration k is seen
                polish = super().run(steps)
                tried.append((k, self.pattern, steps, polish is not None))
                # a run from scratch on the budget: the outcome, bitwise
                fresh = Finish(self.problem, self.lam, self.pattern).run(steps)
                assert (polish is None) == (fresh is None)
                if polish is not None:
                    assert polish[0].tobytes() == fresh[0].tobytes()
                return polish

        monkeypatch.setattr(engine, "Finish", Spy)
        result = solve(problem, cfg, callback=seen.append)
        return result, seen, tried

    @pytest.mark.parametrize("floor", [1, 2, 3, 4])
    def test_checkpoints_are_half_octaves_holding_the_octaves(self, floor):
        # strictly increasing, and every octave checkpoint floor * 2^j up to
        # max_iter among them, at about two a doubling
        max_iter = SolverConfig().max_iter
        checkpoints = list(itertools.takewhile(
            lambda k: k <= max_iter, certificate_checkpoints(floor)))
        assert all(a < b for a, b in zip(checkpoints, checkpoints[1:]))
        octaves = list(itertools.takewhile(
            lambda k: k <= max_iter, (floor * 2**j for j in itertools.count())))
        assert set(octaves) <= set(checkpoints)
        assert len(checkpoints) <= 2 * len(octaves)
        expected = {1: [1, 2, 3, 4, 6, 8, 11, 16], 2: [2, 3, 4, 6, 8, 11, 16, 23],
                    3: [3, 4, 6, 8, 12, 17, 24, 34],
                    4: [4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256]}
        assert checkpoints[:len(expected[floor])] == expected[floor]

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("seed", [1, 4, 10])
    @pytest.mark.parametrize("tol", [1e-8, 1e-4])  # 1e-4: residual stops too
    def test_attempts_follow_the_checkpoint_rule(self, monkeypatch, kind, seed,
                                                 tol):
        n = 6
        problem = factor_problem(n=n, seed=seed)
        result, seen, tried = self.attempts(
            problem, solver_config(problem, kind=kind, lam=0.001, tol=tol,
                                   max_iter=5000), monkeypatch)
        checkpoints = set(itertools.takewhile(
            lambda k: k <= 5000, certificate_checkpoints(attempt_floor(n))))
        last = result.iterations - 1
        # the work of the run's refactorizations, which the residual stop adds
        refactored = sum(a.rho != b.rho for a, b in zip(seen, seen[1:]))
        factor_work = refactored * (n + 2) / 3

        def budget(k, z, stop=False):
            return finish_steps(n, np.count_nonzero(z),
                                k + 1 + (factor_work if stop else 0.0))

        failed = None  # pattern and budget of the last failed attempt
        attempted = {}
        for k, z, steps, passed in tried:
            pattern = np.sign(z)
            if k != last:
                assert k in checkpoints
                assert np.array_equal(pattern, np.sign(seen[k - 1].z))
                assert steps == budget(k, z)
            else:  # a checkpoint, or the residual stop with its larger budget
                assert steps in (budget(k, z), budget(k, z, stop=True))
            assert steps >= 1
            # a pattern that failed is tried again only on a larger budget
            if failed is not None and np.array_equal(pattern, failed[0]):
                assert steps > failed[1]
            if not passed:
                failed = pattern, steps
            attempted[k] = failed
        # and every other checkpoint with a repeated pattern tries
        failed = None
        for k in range(1, last):
            pattern = np.sign(seen[k].z)
            steps = budget(k, seen[k].z)
            due = (k in checkpoints and steps >= 1
                   and np.array_equal(pattern, np.sign(seen[k - 1].z))
                   and not (failed is not None and failed[1] >= steps
                            and np.array_equal(pattern, failed[0])))
            assert (k in attempted) == due
            failed = attempted.get(k, failed)
        assert [passed for *_, passed in tried].count(True) == result.certified
        assert tried[-1][3] == result.certified
        # the counters on the result count the same attempts
        assert result.finish.attempts == len(tried)
        assert result.finish.failed == [p for *_, p in tried].count(False)

    def test_a_failed_pattern_is_retried_on_a_larger_budget(self, monkeypatch):
        # acceptance test 11's instance 80 (n=7, lam 0, fixed): z's pattern
        # at the checkpoint k=3 fails on one block solve, as one weight's
        # sign is wrong, and the next checkpoint, k=4, certifies the same
        # pattern on its budget of two (on octave checkpoints it was k=6,
        # on three); before retries the run went on to its residual stop at
        # k=15, uncertified and 2.4e-6 (relative) above the optimum
        mu, C = estimate_stats(generate_synthetic_returns(7, 60, 3016,
                                                          noise_scale=0.03))
        problem = build_problem(mu, C, 0.5 * (float(mu.min()) + float(mu.max())))
        cfg = SolverConfig(penalty=PenaltyConfig(kind="fixed"),
                           lambda_schedule=LambdaSchedule.fixed(0.0))
        result, seen, tried = self.attempts(problem, cfg, monkeypatch)
        assert [(k, steps, passed) for k, _, steps, passed in tried] == [
            (3, 1, False), (4, 2, True)]
        assert np.array_equal(np.sign(tried[0][1]), np.sign(tried[1][1]))
        # the retry goes on from the failed finish: its second step is the
        # only block solve it makes
        assert (result.finish.factorizations, result.finish.updates) == (2, 0)
        assert result.termination == "converged" and result.certified
        oracle = enumerate_solve(problem, 0.0)
        np.testing.assert_allclose(result.weights, oracle.weights, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_certified_iterate_is_a_fixed_point(self, kind):
        # from (z, y) = (x*, -lam*g) the three steps return the same point
        problem = factor_problem(n=8, m=60, seed=30)
        lam = initial_lambda(60, 8)
        seen = []
        result = solve(problem, solver_config(problem, kind=kind, lam=lam,
                                              max_iter=5000),
                       callback=seen.append)
        assert result.certified
        state = result.final_state
        rho = state.rho
        x = solve_x_update(factorize(problem, rho), state.z, state.y)
        np.testing.assert_allclose(x, state.x, rtol=0, atol=1e-12)
        z = soft_threshold(x - state.y / rho, lam / rho)
        assert np.array_equal(z != 0, state.z != 0)
        np.testing.assert_allclose(z, state.z, rtol=0, atol=1e-12)
        assert np.abs(state.y).max() <= lam * (1 + 1e-12)
        # its residual norms are its own: no consensus gap, and the z-step
        assert (state.r_norm, state.d_norm) == residual_norms(
            state.z - state.x, state.z - seen[-2].z, rho)
        assert state.r_norm == 0.0

    def test_weights_are_exactly_sparse(self):
        problem = factor_problem(n=8, m=60, seed=30)
        lam = initial_lambda(60, 8)
        result = solve(problem, solver_config(problem, kind="bb", lam=lam))
        oracle = enumerate_solve(problem, lam)
        assert result.certified
        assert np.array_equal(result.weights != 0, oracle.weights != 0)
        assert np.count_nonzero(result.weights) < problem.n
        assert result.objective == objective_value(problem.C, result.weights, lam)

    def test_n500_benchmark_problem_certifies_for_every_strategy(self):
        # the n=500 problem of the benchmark's solves (gen --assets 500
        # --periods 1000 --seed 3) at the CLI defaults: every strategy
        # certifies the 430-asset optimum; before the finish kept its
        # factorization, fixed (272 iterations) and rb (45) ended by the
        # residual test, uncertified, rb 2.0e-3 (relative) above it
        mu, C = estimate_stats(generate_synthetic_returns(500, 1000, 3))
        problem = build_problem(mu, C,
                                0.5 * (float(mu.min()) + float(mu.max())))
        lam = initial_lambda(1000, 500)
        results = {kind: solve(problem, SolverConfig(
            penalty=PenaltyConfig(kind=kind),
            lambda_schedule=LambdaSchedule.fixed(lam)))
            for kind in PENALTY_KINDS}
        support = results["bb"].weights != 0
        assert np.count_nonzero(support) == 430
        for kind, result in results.items():
            assert result.certified, kind
            assert np.array_equal(result.weights != 0, support), kind
            assert (abs(result.objective - results["bb"].objective)
                    <= 1e-12 * results["bb"].objective), kind
        assert results["fixed"].iterations <= 272
        assert results["rb"].iterations <= 45
