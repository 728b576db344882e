"""Release acceptance suite.

One test per contract criterion.  Each test prints a single PASS/FAIL line
with its measured worst case (visible under ``pytest -s``) and then asserts
the pinned bounds, so a red run always names the criterion that broke.
"""

import json
import time

import numpy as np
import pytest

import sparsefolio.admm_engine as admm_engine
from conftest import factor_problem, mean_diag_rho
from exhaustive_oracle import enumerate_solve, fixed_rho_reference, kkt_violation
from sparsefolio.admm_engine import (
    IterateState,
    SolverConfig,
    solve,
    stopping_check,
)
from sparsefolio.cli import main
from sparsefolio.kkt import KKT_TOL
from sparsefolio.lambda_controller import MAX_ADJUSTMENTS, LambdaSchedule, initial_lambda
from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import build_problem
from sparsefolio.penalty import (
    EPS_CORR,
    PENALTY_KINDS,
    PenaltyConfig,
    _side_scalar,
    spectral_rho,
)
from sparsefolio.suites import SUITE_ASSETS, SUITE_PERIODS, make_suite_instances


def report(index, name, ok, detail):
    print(f"criterion {index}: {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def midpoint_problem(n, m, seed, noise_scale=0.03):
    returns = generate_synthetic_returns(n, m, seed, noise_scale=noise_scale)
    mu, C = estimate_stats(returns)
    e = 0.5 * (float(mu.min()) + float(mu.max()))
    return build_problem(mu, C, e)


def fixed_lambda_config(problem, kind, lam, tol, max_iter):
    return SolverConfig(
        tol=tol, max_iter=max_iter,
        penalty=PenaltyConfig(kind=kind, rho0=mean_diag_rho(problem)),
        lambda_schedule=LambdaSchedule.fixed(lam))


class FailingFinish(admm_engine.Finish):
    """A kkt.Finish whose every run fails, so runs end by ADMM's own stop."""

    def run(self, steps):
        self.budget = max(self.budget, steps)
        return None


def oracle_equivalence(certificates):
    started = time.perf_counter()
    worst_gap, worst_winf, worst_certified = 0.0, 0.0, 0.0
    for i in range(100):
        n = 3 + i % 6
        problem = midpoint_problem(n, 60, seed=1000 + i)
        lam0 = initial_lambda(60, n)
        lam = (0.0, lam0, 10.0 * lam0)[(i // 6) % 3]
        oracle = enumerate_solve(problem, lam)
        for kind in PENALTY_KINDS:
            result = solve(problem, fixed_lambda_config(problem, kind, lam,
                                                        tol=1e-8,
                                                        max_iter=200000))
            assert result.termination == "converged", (i, kind)
            assert certificates or not result.certified, (i, kind)
            gap = abs(result.objective - oracle.objective) \
                / abs(oracle.objective)
            worst_gap = max(worst_gap, gap)
            winf = float(np.abs(result.weights - oracle.weights).max())
            if oracle.unique:
                worst_winf = max(worst_winf, winf)
            if result.certified:
                worst_certified = max(worst_certified, winf)
    elapsed = time.perf_counter() - started
    ok = (worst_gap <= 1e-6 and worst_winf <= 1e-4 and worst_certified <= 1e-12
          and elapsed < 120.0)
    mode = "" if certificates else ", no certificates"
    report(1, f"oracle equivalence{mode}", ok,
           f"worst gap {worst_gap:.2e}, worst winf {worst_winf:.2e}, "
           f"certified {worst_certified:.1e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-6
    assert worst_winf <= 1e-4
    assert worst_certified <= 1e-12
    assert elapsed < 120.0


def test_1_oracle_equivalence():
    oracle_equivalence(certificates=True)


def test_1_oracle_equivalence_without_certificates(monkeypatch):
    # every run ends by the residual test, which the bounds then gate
    monkeypatch.setattr(admm_engine, "Finish", FailingFinish)
    oracle_equivalence(certificates=False)


def test_2_l1_norm_monotone_in_lambda():
    worst = 0.0
    lam0 = initial_lambda(60, 6)
    grid = [0.0] + [lam0 * f for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    for trial in range(20):
        problem = midpoint_problem(6, 60, seed=700 + trial)
        norms = []
        for lam in grid:
            result = solve(problem, fixed_lambda_config(problem, "rbb", lam,
                                                        tol=1e-10,
                                                        max_iter=100000))
            assert result.termination == "converged"
            norms.append(float(np.abs(result.weights).sum()))
        for i in range(len(grid)):
            for j in range(len(grid)):
                worst = min(worst, (grid[i] - grid[j]) * (norms[j] - norms[i]))
    ok = worst >= -1e-8
    report(2, "L1 norm monotone in lambda", ok, f"worst pair product {worst:.2e}")
    assert worst >= -1e-8


def test_3_regularized_scalar_interpolates():
    rng = np.random.default_rng(33)
    taus = (0.0, 0.1, 1.0, 10.0, 1e6, 1e12)
    worst_low, worst_high, worst_end0, worst_end1 = 0.0, 0.0, 0.0, 0.0
    accepted = 0
    while accepted < 10000:
        d = rng.standard_normal(8)
        g = rng.standard_normal(8)
        if float(d @ g) <= 0.0:
            g = -g
        # the correlation gate is the only route into the regularized scalar
        inner = float(d @ g)
        if not inner / np.sqrt(float(d @ d) * float(g @ g)) > EPS_CORR:
            continue
        accepted += 1
        bb1 = inner / float(d @ d)
        bb2 = float(g @ g) / inner
        values = [_side_scalar(d, g, tau) for tau in taus]
        worst_low = min(worst_low, min(values) - bb1)
        worst_high = max(worst_high, max(values) - bb2)
        assert all(a <= b for a, b in zip(values, values[1:]))
        worst_end0 = max(worst_end0, abs(values[0] - bb1) / abs(bb1))
        worst_end1 = max(worst_end1, abs(values[-1] - bb2) / abs(bb2))
    ok = (worst_low >= -1e-12 and worst_high <= 1e-12
          and worst_end0 <= 1e-6 and worst_end1 <= 1e-6)
    report(3, "regularized scalar interpolates", ok,
           f"envelope [{worst_low:.1e}, {worst_high:.1e}], "
           f"endpoints {worst_end0:.1e}/{worst_end1:.1e}")
    assert worst_low >= -1e-12
    assert worst_high <= 1e-12
    assert worst_end0 <= 1e-6
    assert worst_end1 <= 1e-6


def test_4_spectral_rho_scale_invariant():
    rng = np.random.default_rng(44)
    worst = 0.0
    for kind in ("bb", "rbb"):
        cfg = PenaltyConfig(kind=kind, rho0=1.0)
        for _ in range(50):
            vectors = rng.standard_normal((8, 5))
            r_norm, d_norm = rng.uniform(0.1, 2.0, size=2)

            def emitted(s):
                prev = IterateState(
                    ybar=s * vectors[0], y=s * vectors[1],
                    x=s * vectors[2], z=s * vectors[3], rho=1.3, lam=0.0, k=1)
                state = IterateState(
                    x=s * vectors[4], z=s * vectors[5], y=s * vectors[6],
                    ybar=s * vectors[7], r_norm=s * r_norm, d_norm=s * d_norm,
                    rho=1.3, lam=0.0, k=3)
                return spectral_rho(prev, state, cfg)

            base = emitted(1.0)
            for s in (1e-3, 1e3):
                worst = max(worst, abs(emitted(s) - base) / abs(base))
    ok = worst <= 1e-12
    report(4, "spectral rho scale invariance", ok, f"worst rel change {worst:.1e}")
    assert worst <= 1e-12


def test_5_adaptive_lambda_removes_shorts():
    # midpoint targets sit inside [min mean, max mean], which convex
    # combinations of the extreme assets attain without shorting
    worst_weight, worst_adjustments, converged, iterations = 0.0, 0, 0, 0
    for trial in range(20):
        problem = midpoint_problem(10, 120, seed=500 + trial,
                                   noise_scale=0.01)
        schedule = LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0)
        cfg = SolverConfig(
            tol=1e-8, max_iter=30000,
            penalty=PenaltyConfig(kind="rbb", rho0=mean_diag_rho(problem)),
            lambda_schedule=schedule)
        result = solve(problem, cfg)
        worst_weight = min(worst_weight, float(result.weights.min()))
        worst_adjustments = max(worst_adjustments, result.lambda_adjustments)
        converged += result.termination == "converged"
        iterations += result.iterations
        assert result.lambda_adjustments <= MAX_ADJUSTMENTS
    # the midpoint solves need no move, so the guard is made to act on the
    # shorts suite's leveraged targets from a lambda 100 times below the
    # default; under fixed rho every run reuses the rho0 factorization
    shorts_moves = []
    for kind in ("rbb", "fixed"):
        for instance in make_suite_instances("shorts", 5, 0):
            schedule = LambdaSchedule.adaptive(
                0.01 * initial_lambda(SUITE_PERIODS, SUITE_ASSETS), sn=0)
            cfg = SolverConfig(tol=1e-8, max_iter=30000,
                               penalty=PenaltyConfig(kind=kind),
                               lambda_schedule=schedule)
            result = solve(instance.problem, cfg)
            shorts_moves.append(result.lambda_adjustments)
            worst_weight = min(worst_weight, float(result.weights.min()))
            converged += result.termination == "converged"
            iterations += result.iterations
    ok = worst_weight >= -1e-6 and converged == 30 and min(shorts_moves) >= 1
    report(5, "adaptive lambda removes shorts", ok,
           f"worst weight {worst_weight:.2e}, "
           f"max adjustments {worst_adjustments} on midpoints, "
           f"{min(shorts_moves)} to {max(shorts_moves)} on shorts, "
           f"{converged}/30 converged in {iterations} iterations")
    # a run cut off by max_iter could pass the weight bound by luck
    assert converged == 30
    assert worst_weight >= -1e-6
    assert min(shorts_moves) >= 1


def stopping_inequalities(certificates):
    # converged means the residual inequalities hold or a KKT certificate
    # does; a certified run is re-verified from its weights alone, and
    # against the oracle
    tol = 1e-8
    checked, certified = 0, 0
    for trial in range(8):
        problem = midpoint_problem(5 + trial % 3, 60, seed=2000 + trial)
        lam = initial_lambda(60, problem.n) * (trial % 4)
        for kind in PENALTY_KINDS:
            result = solve(problem, fixed_lambda_config(problem, kind, lam,
                                                        tol=tol,
                                                        max_iter=200000))
            # every run must converge: a skipped run would let the gate pass
            assert result.termination == "converged", (trial, kind)
            state = result.final_state
            checked += 1
            assert certificates or not result.certified, (trial, kind)
            if result.certified:
                certified += 1
                assert state.x is state.z is result.weights
                assert kkt_violation(problem, lam, result.weights) <= KKT_TOL
                oracle = enumerate_solve(problem, lam)
                assert np.abs(result.weights - oracle.weights).max() <= 1e-12
                continue
            r_check = float(np.linalg.norm(state.z - state.x))
            assert r_check <= tol * max(np.linalg.norm(state.x),
                                        np.linalg.norm(state.z))
            assert state.d_norm <= tol * max(np.linalg.norm(state.y), 1.0)
            assert stopping_check(r_check, state.d_norm, state.x, state.z,
                                  state.y, tol)
    ok = checked == 32
    mode = "" if certificates else ", no certificates"
    report(6, f"stopping inequalities at convergence{mode}", ok,
           f"{checked} converged runs re-verified, {certified} by certificate")
    assert checked == 32


def test_6_stopping_inequalities_hold_at_convergence():
    stopping_inequalities(certificates=True)


def test_6_stopping_inequalities_without_certificates(monkeypatch):
    # every run is re-verified by the residual inequalities
    monkeypatch.setattr(admm_engine, "Finish", FailingFinish)
    stopping_inequalities(certificates=False)


def test_7_fixed_rho_matches_reference_loop(monkeypatch):
    # without certificates, as one would end this run before its 20th iterate
    monkeypatch.setattr(admm_engine, "Finish", FailingFinish)
    problem = factor_problem(n=6, m=60, seed=77)
    lam, rho, iters = 0.002, 0.5, 20
    states = []
    cfg = SolverConfig(tol=1e-16, max_iter=iters,
                       penalty=PenaltyConfig(kind="fixed", rho0=rho),
                       lambda_schedule=LambdaSchedule.fixed(lam))
    solve(problem, cfg, callback=states.append)
    assert len(states) == iters

    worst = 0.0
    for state, (x, z, u) in zip(states,
                                fixed_rho_reference(problem, lam, rho, iters)):
        worst = max(worst,
                    float(np.abs(state.x - x).max()),
                    float(np.abs(state.z - z).max()),
                    float(np.abs(state.y + rho * u).max()))
    ok = worst <= 1e-12
    report(7, "fixed rho matches reference loop", ok,
           f"worst per-iterate gap {worst:.1e} over {iters} iterations")
    assert worst <= 1e-12


def test_8_adaptive_strategies_handle_ill_conditioning():
    from sparsefolio.suites import make_suite_instances

    instances = make_suite_instances("illcond", trials=5, seed=0)
    counts = {}
    for kind in PENALTY_KINDS:
        counts[kind] = []
        for problem, lam in instances:
            cfg = SolverConfig(tol=1e-6, max_iter=5000,
                               penalty=PenaltyConfig(kind=kind, rho0=1.0),
                               lambda_schedule=LambdaSchedule.fixed(lam))
            result = solve(problem, cfg)
            counts[kind].append(
                result.iterations if result.termination == "converged" else None)
    # half of max_iter: a bound at the cap itself could never fail
    ok = all(c is not None and c <= 2500
             for kind in ("rb", "bb", "rbb") for c in counts[kind])
    fixed_note = ",".join("cap" if c is None else str(c)
                          for c in counts["fixed"])
    report(8, "adaptive strategies on ill-conditioned suite", ok,
           f"rb {counts['rb']}, bb {counts['bb']}, rbb {counts['rbb']}; "
           f"fixed recorded [{fixed_note}], not asserted")
    for kind in ("rb", "bb", "rbb"):
        assert all(c is not None and c <= 2500 for c in counts[kind]), kind


def test_9_solve_json_deterministic(tmp_path):
    data = tmp_path / "returns.csv"
    assert main(["gen", "--assets", "8", "--periods", "120", "--seed", "21",
                 "-o", str(data)]) == 0
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.json"
        code = main(["solve", "--input", str(data), "--strategy", "rbb",
                     "--history", "-o", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(9, "solve output deterministic", ok,
           f"{len(outputs[0])} bytes compared")
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


def test_10_adaptive_frontier_matches_oracle():
    # the loop-n10 benchmark frontier: n=10, m=120, generator seed 3, rbb at
    # the CLI defaults.  The exact optimum at the initial lambda has no
    # shorts at points 1-18, so the guard must leave lambda alone there; at
    # the endpoints 0 and 19 it must move lambda (it moves it 2 and 4
    # times), and the optimum at the final lambda is the extreme-mean asset
    # alone.
    mu, C = estimate_stats(generate_synthetic_returns(10, 120, 3))
    targets = np.linspace(float(mu.min()), float(mu.max()), 20)
    lam0 = initial_lambda(120, 10)
    cfg = SolverConfig(tol=1e-6, max_iter=5000,
                       penalty=PenaltyConfig(kind="rbb"),
                       lambda_schedule=LambdaSchedule.adaptive(lam0, sn=0))
    converged, moved, worst_gap = 0, [], 0.0
    certified, worst_certified = 0, 0.0
    for point, target in enumerate(targets):
        problem = build_problem(mu, C, float(target))
        result = solve(problem, cfg)
        converged += result.termination == "converged"
        if result.lambda_adjustments:
            moved.append(point)
        oracle = enumerate_solve(problem, result.lambda_final)
        gap = float(np.abs(result.final_state.z - oracle.weights).max())
        worst_gap = max(worst_gap, gap)
        if result.certified:
            certified += 1
            worst_certified = max(worst_certified, gap)
    ok = (converged == 20 and moved == [0, 19] and worst_gap <= 1e-5
          and certified == 20 and worst_certified <= 1e-12)
    report(10, "adaptive frontier matches oracle", ok,
           f"{converged}/20 converged, lambda moved at {moved}, "
           f"worst z gap {worst_gap:.1e}, {certified}/20 certified "
           f"within {worst_certified:.1e}")
    assert converged == 20
    # the guard moves lambda at the endpoints and nowhere else
    assert moved == [0, 19]
    assert worst_gap <= 1e-5
    # every point certifies, the single-asset endpoints included
    assert certified == 20
    assert worst_certified <= 1e-12


def certification_instances():
    """60 seeded instances, n = 3 to 8, each at five lambdas, then the 15
    bench-suite instances at their own lambda; each with whether it is a
    bench-suite one."""
    for i in range(60):
        n = 3 + i % 6
        problem = midpoint_problem(n, 60, seed=3000 + i)
        for lam in (0.0, 1e-6, initial_lambda(60, n), 1e-3, 1e-2):
            yield problem, lam, False
    from sparsefolio.suites import SUITES, make_suite_instances

    for suite in SUITES:
        for problem, lam in make_suite_instances(suite, trials=5, seed=0):
            yield problem, lam, True


def test_11_certified_solves_are_the_oracle_optimum():
    # at the CLI defaults (tol 1e-6, each kind's rho0, max_iter 5000), every
    # solve a certificate ends is the exhaustive oracle's optimum
    solves, certified, worst, bench_uncertified = 0, 0, 0.0, []
    iterations = 0
    for problem, lam, bench in certification_instances():
        oracle = enumerate_solve(problem, lam)
        for kind in PENALTY_KINDS:
            result = solve(problem, SolverConfig(
                penalty=PenaltyConfig(kind=kind),
                lambda_schedule=LambdaSchedule.fixed(lam)))
            solves += 1
            iterations += result.iterations
            if result.certified:
                certified += 1
                assert np.array_equal(result.weights != 0, oracle.weights != 0)
                worst = max(worst, float(np.abs(result.weights
                                                - oracle.weights).max()))
            elif bench:
                bench_uncertified.append(kind)
    # a gate that few solves reach would bind on little; 1248 were certified
    # when fixed and rb started at rho0 = 1, 1254 before each attempt
    # corrected z's support, 1259 before a failed pattern was retried on a
    # larger budget and all 1260 since
    ok = (worst <= 1e-12 and certified >= 0.9 * solves and certified >= 1260
          and not bench_uncertified and iterations <= 9014)
    report(11, "certified solves are the oracle optimum", ok,
           f"{certified}/{solves} certified, worst weight error {worst:.1e}, "
           f"bench-suite solves uncertified {bench_uncertified}, "
           f"{iterations} iterations")
    assert worst <= 1e-12
    assert certified >= 0.9 * solves
    assert certified >= 1260
    # the iterations of all 1260 solves: 12,443 before retries and the
    # one-asset escape, 10,861 before attempts were priced by the support
    # they solve, 10,341 before the checkpoints became half-octaves, 9,014
    # since; a change that adds any fails here
    assert iterations <= 9014
    # all 60 bench-suite solves end certified
    assert not bench_uncertified


def test_12_fixed_converges_from_its_default_start():
    # at the library defaults fixed starts at sqrt(lambda_min * lambda_max)
    # of C; from rho0 = 1 it reached max_iter on 6 of these 15 instances
    from sparsefolio.suites import SUITES, make_suite_instances

    converged, certified, worst, uncertified = 0, 0, 0.0, []
    for suite in SUITES:
        for trial, (problem, lam) in enumerate(
                make_suite_instances(suite, trials=5, seed=0)):
            result = solve(problem, SolverConfig(
                penalty=PenaltyConfig(kind="fixed"),
                lambda_schedule=LambdaSchedule.fixed(lam)))
            converged += result.termination == "converged"
            oracle = enumerate_solve(problem, lam)
            if result.certified:
                certified += 1
                assert np.array_equal(result.weights != 0, oracle.weights != 0)
                worst = max(worst, float(np.abs(result.weights
                                                - oracle.weights).max()))
            else:
                excess = (result.objective - oracle.objective) / oracle.objective
                uncertified.append(f"{suite} {trial}: {result.iterations} "
                                   f"iterations, {excess:.1e} above")
    ok = converged == 15 and certified == 15 and worst <= 1e-12
    report(12, "fixed converges from its default start", ok,
           f"{converged}/15 converged, {certified} certified within "
           f"{worst:.1e}; uncertified [{'; '.join(uncertified)}]")
    assert converged == 15
    assert certified == 15
    assert worst <= 1e-12
