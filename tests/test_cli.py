import json

import jsonschema
import numpy as np
import pytest

from sparsefolio.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    RESULT_SCHEMA,
    main,
)
from sparsefolio.market_data import generate_synthetic_returns, load_returns_csv
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


class TestSolve:
    def test_converges_and_validates_schema(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path)
        assert code == EXIT_OK
        jsonschema.validate(payload, RESULT_SCHEMA)
        assert payload["termination"] == "converged"
        assert "history" not in payload
        assert len(payload["weights"]) == 10

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

    def test_unreachable_target_exits_2(self, returns_csv, capsys):
        assert main(["solve", "--input", returns_csv,
                     "--target-return", "99"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_adaptive_mode_accepts_short_budget(self, returns_csv, tmp_path):
        code, payload = run_solve(returns_csv, tmp_path, "--adaptive-lambda",
                                  "--sn", "0", "--max-iter", "30000")
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert payload["lambda_final"] >= payload["lambda_initial"]

    def test_adaptive_with_zero_lambda_exits_2(self, returns_csv, capsys):
        assert main(["solve", "--input", returns_csv, "--adaptive-lambda",
                     "--lambda", "0"]) == EXIT_INPUT
        assert "positive" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, returns_csv):
        assert main(["solve", "--input", returns_csv, "--frobnicate"]) \
            == EXIT_INPUT

    def test_missing_command_exits_2(self):
        assert main([]) == EXIT_INPUT


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

    def test_zero_points_exits_2(self, returns_csv, capsys):
        assert main(["frontier", "--input", returns_csv, "--points", "0"]) \
            == EXIT_INPUT
        assert "at least 1" in capsys.readouterr().err

    def test_inverted_range_exits_2(self, returns_csv, capsys):
        assert main(["frontier", "--input", returns_csv, "--e-min", "0.02",
                     "--e-max", "0.01"]) == EXIT_INPUT
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--e-min", "nan"),
                                             ("--e-max", "inf")])
    def test_non_finite_target_exits_2(self, returns_csv, capsys, flag, value):
        assert main(["frontier", "--input", returns_csv, "--points", "2",
                     flag, value]) == EXIT_INPUT
        assert f"{flag} must be finite" in capsys.readouterr().err


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
        # medians recorded from the first run of this configuration; the
        # fixed strategy stalls far behind residual balancing here
        code, rows = self.run(tmp_path, "--suite", "illcond", "--trials", "3",
                              "--seed", "0")
        assert code == EXIT_OK
        medians = {}
        for row in rows[1:]:
            fields = row.split(",")
            if fields[2] == "median":
                medians[fields[1]] = float(fields[3])
        assert medians["fixed"] == 5000.0
        assert medians["rb"] == 1101.0
        assert medians["bb"] == 57.0
        assert medians["rbb"] == 102.0
        assert medians["fixed"] >= medians["rb"]

    def test_unknown_suite_exits_2(self):
        assert main(["bench", "--suite", "weird"]) == EXIT_INPUT
