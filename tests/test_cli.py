import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sparsefolio.cli as cli
from exhaustive_oracle import enumerate_solve
from sparsefolio.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    RESULT_SCHEMA,
    main,
)
from sparsefolio.market_data import (estimate_stats, generate_synthetic_returns,
                                     load_returns_csv)
from sparsefolio.model import build_problem
from sparsefolio.penalty import PENALTY_KINDS


@pytest.fixture(scope="module")
def returns_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "returns.csv"
    assert main(["gen", "--assets", "10", "--periods", "200", "--seed", "7",
                 "-o", str(path)]) == EXIT_OK
    return str(path)


def run_solve(returns_csv, tmp_path, *extra):
    out = tmp_path / "result.json"
    code = main(["solve", "--input", returns_csv, "-o", str(out), *extra])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestGen:
    def test_line_count_includes_header(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["gen", "--assets", "5", "--periods", "200", "--seed", "1",
                     "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 201

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen", "--assets", "4", "--periods", "50", "--seed", "9",
                  "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--assets", "4", "--periods", "50", "--seed", "1", "-o", str(a)])
        main(["gen", "--assets", "4", "--periods", "50", "--seed", "2", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["gen", "--assets", "6", "--periods", "40", "--seed", "3",
              "-o", str(out)])
        loaded = load_returns_csv(str(out))
        direct = generate_synthetic_returns(6, 40, 3)
        np.testing.assert_array_equal(loaded.values, direct.values)
        assert loaded.asset_names == direct.asset_names

    def test_stdout_sink(self, capsys):
        assert main(["gen", "--assets", "3", "--periods", "10", "--seed", "0",
                     "-o", "-"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_single_asset_rejected(self, capsys):
        assert main(["gen", "--assets", "1", "--periods", "10"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_size_exits_2(self, tmp_path, capsys):
        # 8 PB for the asset means alone: numpy refuses it without allocating
        out = tmp_path / "r.csv"
        assert main(["gen", "--assets", "1000000000000000", "--periods", "2",
                     "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()


class TestSolve:
    def test_converges_and_validates_schema(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path)
        assert code == EXIT_OK
        jsonschema.validate(payload, RESULT_SCHEMA)
        assert payload["termination"] == "converged"
        assert "history" not in payload
        assert len(payload["weights"]) == 10

    def test_certified_field_is_required(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path)
        assert code == EXIT_OK
        assert payload["certified"] is True
        del payload["certified"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, RESULT_SCHEMA)
        payload["certified"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, RESULT_SCHEMA)

    def test_certified_weights_are_exactly_sparse(self, returns_csv, tmp_path):
        _, payload = run_solve(returns_csv, tmp_path, "--target-return", "0.016")
        assert payload["certified"]
        w = np.array(payload["weights"])
        assert 0 < np.count_nonzero(w) < w.size
        assert payload["short_count"] == np.count_nonzero(w < 0) > 0

    def test_uncertified_result(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path, "--max-iter", "2")
        assert code == EXIT_NO_CONVERGENCE
        jsonschema.validate(payload, RESULT_SCHEMA)
        assert payload["certified"] is False

    def test_solution_meets_constraints(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path)
        assert code == EXIT_OK
        w = np.array(payload["weights"])
        assert abs(w.sum() - 1.0) <= 1e-5
        loaded = load_returns_csv(returns_csv)
        mu = loaded.values.mean(axis=0)
        target = payload["config_echo"]["target_return"]
        assert abs(w @ mu - target) <= 1e-5

    def test_auto_lambda_uses_problem_size(self, returns_csv, tmp_path):
        _, payload = run_solve(returns_csv, tmp_path)
        assert payload["lambda_initial"] == pytest.approx(1.0 / (200 * 10))

    @pytest.mark.parametrize("strategy", PENALTY_KINDS)
    def test_every_strategy_converges(self, returns_csv, tmp_path, strategy):
        # plain fixed rho needs a far larger budget than the adaptive kinds
        code, payload = run_solve(returns_csv, tmp_path, "--strategy", strategy,
                                  "--max-iter", "30000")
        assert code == EXIT_OK
        assert payload["termination"] == "converged"

    def test_byte_identical_reruns(self, returns_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["solve", "--input", returns_csv, "--strategy", "rbb",
                         "-o", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_history_arrays_span_iterations(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path, "--history")
        assert code == EXIT_OK
        jsonschema.validate(payload, RESULT_SCHEMA)
        history = payload["history"]
        for key in ("r_norm", "d_norm", "rho", "lambda"):
            assert len(history[key]) == payload["iterations"]

    def test_history_lambda_is_the_value_each_iteration_ran_with(
            self, returns_csv, tmp_path, monkeypatch):
        states = []
        real = cli.solve

        def recording_solve(problem, cfg, callback=None):
            def both(state):
                states.append(state)
                if callback is not None:
                    callback(state)
            return real(problem, cfg, callback=both)

        monkeypatch.setattr(cli, "solve", recording_solve)
        # at the largest asset mean the first run ends with shorts, so the
        # guard moves lambda between runs
        top = float(estimate_stats(load_returns_csv(returns_csv))[0].max())
        _, payload = run_solve(returns_csv, tmp_path, "--adaptive-lambda",
                               "--sn", "0", "--max-iter", "300",
                               "--target-return", repr(top), "--history")
        history = payload["history"]
        assert len({s.lam for s in states}) > 1, "expected the guard to move lambda"
        assert history["lambda"] == [s.lam for s in states]
        assert history["rho"] == [s.rho for s in states]

    def test_config_echo_reflects_flags(self, returns_csv, tmp_path):
        _, payload = run_solve(returns_csv, tmp_path, "--strategy", "rb",
                               "--tol", "1e-7", "--rho0", "2.5")
        echo = payload["config_echo"]
        assert echo["strategy"] == "rb"
        assert echo["tol"] == 1e-7
        assert echo["rho0"] == 2.5
        assert echo["input"] == returns_csv

    def test_iteration_budget_exhaustion_exits_3(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path, "--max-iter", "2",
                                  "--tol", "1e-14")
        assert code == EXIT_NO_CONVERGENCE
        assert payload["termination"] == "max_iter"
        assert payload["iterations"] == 2

    def test_lone_asset_off_the_target_is_finished(self, tmp_path):
        # after four lambda moves this run's z settles on asset 2 alone, whose
        # mean 0.014820 misses the target; the finish goes on from the
        # cheapest feasible pair and certifies the optimum {2, 8} (before,
        # rbb stalled on that z until max_iter, 5000 iterations, exit 3)
        data = tmp_path / "returns.csv"
        assert main(["gen", "--assets", "10", "--periods", "120", "--seed",
                     "3", "-o", str(data)]) == EXIT_OK
        code, payload = run_solve(str(data), tmp_path, "--target-return",
                                  "0.0148", "--adaptive-lambda")
        assert code == EXIT_OK
        assert payload["termination"] == "converged" and payload["certified"]
        assert payload["iterations"] < 100
        mu, C = estimate_stats(load_returns_csv(str(data)))
        oracle = enumerate_solve(build_problem(mu, C, 0.0148),
                                 payload["lambda_final"])
        np.testing.assert_allclose(payload["weights"], oracle.weights, rtol=0,
                                   atol=1e-12)
        assert list(np.flatnonzero(oracle.weights)) == [2, 8]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "absent.csv")]) \
            == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_negative_lambda_exits_2(self, returns_csv, capsys):
        assert main(["solve", "--input", returns_csv, "--lambda=-0.5"]) \
            == EXIT_INPUT
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--tol", "--q"])
    def test_non_finite_setting_exits_2(self, returns_csv, capsys, flag, value):
        assert main(["solve", "--input", returns_csv, flag, value]) == EXIT_INPUT
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_overflowing_rbb_weight_converges(self, tmp_path, seed):
        # (r/d)^1000 overflows a float on these inputs; tau is then TAU_MAX
        path = str(tmp_path / "r.csv")
        assert main(["gen", "--assets", "10", "--periods", "120",
                     "--seed", str(seed), "-o", path]) == EXIT_OK
        code, payload = run_solve(path, tmp_path, "--strategy", "rbb",
                                  "--q", "1000")
        assert code == EXIT_OK
        assert payload["termination"] == "converged"

    @pytest.mark.parametrize("command", ["solve", "frontier"])
    def test_field_over_csv_limit_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "long.csv"
        long_field = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"A,B\n{long_field},0.2\n0.3,0.4\n")
        assert main([command, "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2: field larger than field limit" in err

    def test_unreachable_target_exits_2(self, returns_csv, capsys):
        mu, _ = estimate_stats(load_returns_csv(returns_csv))
        for target in ("99", "1e400"):
            assert main(["solve", "--input", returns_csv,
                         "--target-return", target]) == EXIT_INPUT
            # the message names the range the target must lie in
            err = capsys.readouterr().err
            assert err.startswith("error: target return ")
            assert (f"outside the attainable mean range "
                    f"[{mu.min()}, {mu.max()}]") in err

    def test_out_of_range_target_names_the_range(self, returns_csv, capsys):
        mu, _ = estimate_stats(load_returns_csv(returns_csv))
        target = float(mu.max()) + 0.5
        assert main(["solve", "--input", returns_csv,
                     "--target-return", repr(target)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"target return {target} outside the attainable mean range "
                f"[{mu.min()}, {mu.max()}]") in err

    @pytest.mark.parametrize("bound", ["min", "max"])
    def test_target_at_a_bound_is_solved(self, returns_csv, tmp_path, bound):
        mu, _ = estimate_stats(load_returns_csv(returns_csv))
        target = float(getattr(mu, bound)())
        code, payload = run_solve(returns_csv, tmp_path,
                                  "--target-return", repr(target))
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert payload["config_echo"]["target_return"] == target

    def test_adaptive_mode_accepts_short_budget(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path, "--adaptive-lambda",
                                  "--sn", "0", "--max-iter", "30000")
        assert code == EXIT_OK
        assert payload["termination"] == "converged"
        assert payload["short_count"] == 0

    @pytest.mark.parametrize("mode", [[], ["--adaptive-lambda"]],
                             ids=["fixed", "adaptive"])
    def test_negative_short_budget_exits_2(self, returns_csv, capsys, mode):
        assert main(["solve", "--input", returns_csv, "--sn", "-1", *mode]) \
            == EXIT_INPUT
        assert "--sn must be nonnegative" in capsys.readouterr().err

    def test_adaptive_with_zero_lambda_exits_2(self, returns_csv, capsys):
        assert main(["solve", "--input", returns_csv, "--adaptive-lambda",
                     "--lambda", "0"]) == EXIT_INPUT
        assert "positive" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, returns_csv):
        assert main(["solve", "--input", returns_csv, "--frobnicate"]) \
            == EXIT_INPUT

    def test_missing_command_exits_2(self):
        assert main([]) == EXIT_INPUT


class TestModuleEntry:
    """`python -m sparsefolio.cli` runs the same main as the console script."""

    def run_module(self, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "sparsefolio.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_gen_prints_csv(self):
        done = self.run_module("gen", "--assets", "3", "--periods", "5")
        assert done.returncode == EXIT_OK
        lines = done.stdout.splitlines()
        assert lines[0] == "A1,A2,A3"
        assert len(lines) == 6

    def test_usage_error_exits_2(self, returns_csv):
        done = self.run_module("solve", "--input", returns_csv, "--max-iter", "0")
        assert done.returncode == EXIT_INPUT
        assert "error: max_iter" in done.stderr
        # the update cadence is a constant, not a flag
        done = self.run_module("solve", "--input", returns_csv, "--nbar", "2")
        assert done.returncode == EXIT_INPUT
        assert "unrecognized arguments: --nbar 2" in done.stderr


class TestFrontier:
    def run(self, returns_csv, tmp_path, *extra):
        out = tmp_path / "frontier.csv"
        code = main(["frontier", "--input", returns_csv, "-o", str(out), *extra])
        rows = out.read_text().splitlines() if out.exists() else []
        return code, rows

    def test_header_and_row_count(self, returns_csv, tmp_path):
        code, rows = self.run(returns_csv, tmp_path, "--points", "5")
        assert code == EXIT_OK
        assert rows[0] == "e,risk,l1_norm,nonzeros,shorts,iterations,status"
        assert len(rows) == 6

    def test_targets_ascend_and_leverage_floor(self, returns_csv, tmp_path):
        code, rows = self.run(returns_csv, tmp_path, "--points", "8")
        assert code == EXIT_OK
        e = [float(r.split(",")[0]) for r in rows[1:]]
        assert e == sorted(e)
        for row in rows[1:]:
            fields = row.split(",")
            # a fully-invested portfolio cannot have L1 norm below 1
            assert float(fields[2]) >= 1.0 - 1e-9
            assert float(fields[1]) > 0

    def test_default_range_spans_asset_means(self, returns_csv, tmp_path):
        code, rows = self.run(returns_csv, tmp_path, "--points", "3")
        assert code == EXIT_OK
        loaded = load_returns_csv(returns_csv)
        mu = loaded.values.mean(axis=0)
        assert float(rows[1].split(",")[0]) == pytest.approx(mu.min(), abs=1e-12)
        assert float(rows[-1].split(",")[0]) == pytest.approx(mu.max(), abs=1e-12)

    def test_byte_identical_reruns(self, returns_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["frontier", "--input", returns_csv, "--points", "4",
                  "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_exits_3_only_when_no_point_converged(self, returns_csv, tmp_path):
        code, rows = self.run(returns_csv, tmp_path, "--points", "3",
                              "--max-iter", "2", "--tol", "1e-14")
        assert code == EXIT_NO_CONVERGENCE
        assert [r.split(",")[-1] for r in rows[1:]] == ["max_iter"] * 3
        # one converged point of five is enough for exit 0: within 10
        # iterations a certificate ends point 3 (after 9) and no other
        code, rows = self.run(returns_csv, tmp_path, "--points", "5",
                              "--strategy", "bb", "--max-iter", "10")
        assert code == EXIT_OK
        statuses = [r.split(",")[-1] for r in rows[1:]]
        assert sorted(statuses) == ["converged"] + ["max_iter"] * 4

    def test_certified_points_count_the_oracle_support(self, tmp_path):
        # the loop-n10 benchmark frontier: at each certified point the CSV's
        # nonzeros and shorts, the guard's short count on z and the oracle's
        # support agree, as the weights are z
        from exhaustive_oracle import enumerate_solve
        from sparsefolio.admm_engine import SolverConfig, solve
        from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
        from sparsefolio.model import build_problem, count_short_positions
        from sparsefolio.penalty import PenaltyConfig

        data = tmp_path / "returns-n10.csv"
        assert main(["gen", "--assets", "10", "--periods", "120", "--seed", "3",
                     "-o", str(data)]) == EXIT_OK
        code, rows = self.run(str(data), tmp_path, "--points", "20",
                              "--strategy", "rbb", "--adaptive-lambda",
                              "--sn", "0")
        assert code == EXIT_OK
        table = list(csv.DictReader(rows))
        mu, C = estimate_stats(load_returns_csv(str(data)))
        cfg = SolverConfig(penalty=PenaltyConfig(kind="rbb"),
                           lambda_schedule=LambdaSchedule.adaptive(
                               initial_lambda(120, 10), sn=0))
        certified = []
        for point, row in enumerate(table):
            problem = build_problem(mu, C, float(row["e"]))
            result = solve(problem, cfg)
            if not result.certified:
                continue
            certified.append(point)
            support = enumerate_solve(problem, result.lambda_final).weights != 0
            z = result.final_state.z
            assert np.array_equal(z != 0, support)
            assert int(row["nonzeros"]) == np.count_nonzero(support)
            assert int(row["shorts"]) == count_short_positions(z)
        # the endpoints' optima hold one asset, the extreme-mean one
        assert certified == list(range(20))
        assert [int(row["nonzeros"]) for row in table] == [
            1, 4, 7, 8, 9, 9, 9, 10, 10, 10, 10, 9, 8, 8, 6, 5, 4, 4, 3, 1]

    @pytest.mark.parametrize("assets, periods, seed, kind, adaptive", [
        (10, 120, 3, "rbb", True),
        (40, 200, 5, "fixed", False),
        (40, 200, 5, "rb", False),
    ], ids=["n10-rbb-guard", "n40-fixed", "n40-rb"])
    def test_points_are_the_solves_of_their_own_problems(
            self, tmp_path, monkeypatch, assets, periods, seed, kind, adaptive):
        # frontier checks the moments once and hands every point one LU at
        # rho0; each row, and each point's finish counts, must be bitwise
        # those of an independent solve of that point's own problem
        from sparsefolio.admm_engine import SolverConfig, solve
        from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
        from sparsefolio.model import ZERO_TOL, count_short_positions
        from sparsefolio.penalty import PenaltyConfig

        data = tmp_path / "returns.csv"
        assert main(["gen", "--assets", str(assets), "--periods", str(periods),
                     "--seed", str(seed), "-o", str(data)]) == EXIT_OK
        builds, results = [], []
        real_build, real_solve = cli.build_problem, cli.solve

        def counting_build(*args):
            builds.append(args)
            return real_build(*args)

        def recording_solve(*args, **kwargs):
            results.append(real_solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "build_problem", counting_build)
        monkeypatch.setattr(cli, "solve", recording_solve)
        flags = ("--adaptive-lambda", "--sn", "0") if adaptive else ()
        code, rows = self.run(str(data), tmp_path, "--points", "20",
                              "--strategy", kind, *flags)
        assert code == EXIT_OK
        assert len(builds) == 1
        monkeypatch.undo()

        mu, C = estimate_stats(load_returns_csv(str(data)))
        lam = initial_lambda(periods, assets)
        cfg = SolverConfig(
            penalty=PenaltyConfig(kind=kind),
            lambda_schedule=(LambdaSchedule.adaptive(lam, sn=0) if adaptive
                             else LambdaSchedule.fixed(lam)))
        expected = ["e,risk,l1_norm,nonzeros,shorts,iterations,status"]
        targets = np.linspace(float(mu.min()), float(mu.max()), 20)
        for target, shared in zip(targets, results, strict=True):
            problem = build_problem(mu, C, float(target))
            alone = solve(problem, cfg)
            w = alone.weights
            expected.append(",".join([
                repr(float(target)), repr(float(w @ problem.C @ w)),
                repr(float(np.abs(w).sum())),
                str(int(np.sum(np.abs(w) > ZERO_TOL))),
                str(count_short_positions(w)), str(alone.iterations),
                alone.termination]))
            assert shared.weights.tobytes() == w.tobytes()
            assert shared.finish == alone.finish
            assert shared.lambda_adjustments == alone.lambda_adjustments
        assert rows == expected
        if adaptive:
            # the guard frontier moves lambda at both endpoints
            assert [bool(r.lambda_adjustments) for r in results] == (
                [True] + [False] * 18 + [True])

    def test_unallocatable_points_exits_2(self, returns_csv, tmp_path, capsys):
        # 800 TB of targets: numpy refuses it without allocating
        code, rows = self.run(returns_csv, tmp_path,
                              "--points", "100000000000000")
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert rows == []

    def test_zero_points_exits_2(self, returns_csv, capsys):
        assert main(["frontier", "--input", returns_csv, "--points", "0"]) \
            == EXIT_INPUT
        assert "at least 1" in capsys.readouterr().err

    def test_inverted_range_exits_2(self, returns_csv, capsys):
        assert main(["frontier", "--input", returns_csv, "--e-min", "0.02",
                     "--e-max", "0.01"]) == EXIT_INPUT
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--e-min", "nan"], "--e-min must be finite"),
        (["--e-max", "inf"], "--e-max must be finite"),
        (["--e-min=-1e308", "--e-max=1e308"],
         "--e-max 1e+308 minus --e-min -1e+308 overflows"),
    ], ids=["--e-min-nan", "--e-max-inf", "range-overflows"])
    def test_non_finite_target_exits_2(self, returns_csv, capsys, flags, message):
        assert main(["frontier", "--input", returns_csv, "--points", "2",
                     *flags]) == EXIT_INPUT
        assert message in capsys.readouterr().err


class TestBench:
    def run(self, tmp_path, *extra):
        out = tmp_path / "bench.csv"
        code = main(["bench", "-o", str(out), *extra])
        rows = out.read_text().splitlines() if out.exists() else []
        return code, rows

    def test_single_trial_row_count(self, tmp_path):
        code, rows = self.run(tmp_path, "--trials", "1", "--max-iter", "500")
        assert code == EXIT_OK
        assert rows[0] == "suite,strategy,trial,iterations,r_norm,d_norm,wall_time_s"
        data = [r for r in rows[1:] if ",median," not in r]
        medians = [r for r in rows[1:] if ",median," in r]
        assert len(data) == 4
        assert len(medians) == 4

    def test_rows_sorted_by_strategy_then_trial(self, tmp_path):
        code, rows = self.run(tmp_path, "--trials", "2", "--max-iter", "500")
        assert code == EXIT_OK
        data = [r.split(",") for r in rows[1:] if ",median," not in r]
        keys = [(r[0], r[1], int(r[2])) for r in data]
        assert keys == sorted(keys)

    def test_deterministic_up_to_wall_time(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert main(["bench", "--trials", "2", "--seed", "3",
                         "--max-iter", "500", "-o", str(out)]) == EXIT_OK
            stripped = [r.rsplit(",", 1)[0] for r in out.read_text().splitlines()]
            outputs.append(stripped)
        assert outputs[0] == outputs[1]

    def test_illcond_regression_values(self, tmp_path):
        # medians recorded from the first run of this configuration, bb and
        # rbb again when spectral updates began to decline small moves, rb,
        # bb and rbb again when certificates began to end runs, fixed and rb
        # again when they began to start at sqrt(lambda_min * lambda_max) of
        # C, fixed, rb and rbb again when each certificate attempt began to
        # correct z's support, rb again when attempts began to be priced by
        # the support they solve, and fixed, bb and rbb again when the
        # checkpoints became half-octaves; the spectral rules stay ahead of
        # fixed
        code, rows = self.run(tmp_path, "--suite", "illcond", "--trials", "3",
                              "--seed", "0")
        assert code == EXIT_OK
        medians = {}
        for row in rows[1:]:
            fields = row.split(",")
            if fields[2] == "median":
                medians[fields[1]] = float(fields[3])
        assert medians["fixed"] == 46.0
        assert medians["rb"] == 17.0
        assert medians["bb"] == 12.0
        assert medians["rbb"] == 12.0
        assert max(medians["bb"], medians["rbb"]) < medians["fixed"]

    def test_unknown_suite_exits_2(self):
        assert main(["bench", "--suite", "weird"]) == EXIT_INPUT


CSV = "<returns.csv>"  # stands for the module's returns CSV in a command line
# Command lines run in order in one process; each leaves no trace on the next.
SEQUENCES = {
    "history": [["solve", "--input", CSV, "--history"],
                ["solve", "--input", CSV]],
    "rho0": [["solve", "--input", CSV, "--rho0", "0.5"],
             ["solve", "--input", CSV]],
    "adaptive": [["solve", "--input", CSV, "--adaptive-lambda", "--sn", "1"],
                 ["solve", "--input", CSV]],
    "usage": [["solve", "--input", CSV, "--frobnicate"], ["solve"],
              ["solve", "--input", CSV]],
    "help": [["--help"], ["--help"]],
}


class TestOneParserPerProcess:
    """`main` parses every call with one parser, built on its first call."""

    @pytest.fixture(autouse=True)
    def first_call_builds(self):
        cli._parser.cache_clear()

    @staticmethod
    def run(calls, returns_csv, capsys):
        outcomes = []
        for argv in calls:
            code = main([returns_csv if arg == CSV else arg for arg in argv])
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_built_once_across_calls(self, returns_csv, capsys, monkeypatch):
        build, built = cli.build_parser, []

        def counting_build():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for calls in SEQUENCES.values():
            self.run(calls, returns_csv, capsys)
        assert len(built) == 1
        monkeypatch.undo()
        assert cli.build_parser() is not cli.build_parser()

    def test_history_does_not_carry_over(self, returns_csv, capsys):
        (_, with_flag, _), (_, without, _) = self.run(
            SEQUENCES["history"], returns_csv, capsys)
        assert "history" in json.loads(with_flag)
        assert "history" not in json.loads(without)

    def test_rho0_returns_to_its_default(self, returns_csv, capsys):
        echoes = [json.loads(out)["config_echo"] for _, out, _ in
                  self.run(SEQUENCES["rho0"], returns_csv, capsys)]
        assert [echo["rho0"] for echo in echoes] == [0.5, None]

    def test_adaptive_mode_returns_to_fixed(self, returns_csv, capsys):
        echoes = [json.loads(out)["config_echo"] for _, out, _ in
                  self.run(SEQUENCES["adaptive"], returns_csv, capsys)]
        assert [(echo["adaptive_lambda"], echo["sn"]) for echo in echoes] \
            == [(True, 1), (False, 0)]

    def test_usage_errors_leave_the_next_call_whole(self, returns_csv, capsys):
        alone = self.run(SEQUENCES["usage"][-1:], returns_csv, capsys)
        cli._parser.cache_clear()
        outcomes = self.run(SEQUENCES["usage"], returns_csv, capsys)
        assert [code for code, _, _ in outcomes] == [EXIT_INPUT, EXIT_INPUT, EXIT_OK]
        assert "unrecognized arguments: --frobnicate" in outcomes[0][2]
        assert "the following arguments are required: --input" in outcomes[1][2]
        assert outcomes[2:] == alone

    def test_help_twice(self, returns_csv, capsys):
        outcomes = self.run(SEQUENCES["help"], returns_csv, capsys)
        assert [code for code, _, _ in outcomes] == [EXIT_OK, EXIT_OK]
        assert outcomes[0][1].startswith("usage: sparsefolio")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_same_bytes_as_a_new_parser_per_call(self, name, returns_csv,
                                                 capsys, monkeypatch):
        reused = self.run(SEQUENCES[name], returns_csv, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert self.run(SEQUENCES[name], returns_csv, capsys) == reused
