import numpy as np
import pytest

from sparsefolio.market_data import (
    AssetStats,
    ReturnsFormatError,
    ReturnsMatrix,
    estimate_stats,
    generate_synthetic_returns,
    load_returns_csv,
    returns_to_csv,
    write_returns_csv,
)
from sparsefolio.model import build_problem


def two_pass_covariance(values):
    """Deliberately naive reference: explicit loops, 1/(m-1) normalization."""
    m, n = values.shape
    means = [sum(values[:, j]) / m for j in range(n)]
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(m):
                acc += (values[t, i] - means[i]) * (values[t, j] - means[j])
            C[i, j] = acc / (m - 1)
    return C


class TestReturnsMatrix:
    def test_shape_properties(self):
        rm = ReturnsMatrix(np.zeros((5, 3)), ("a", "b", "c"))
        assert rm.periods == 5
        assert rm.assets == 3

    def test_too_few_periods(self):
        with pytest.raises(ValueError, match="at least 2 observation periods"):
            ReturnsMatrix(np.zeros((1, 3)), ("a", "b", "c"))

    def test_too_few_assets(self):
        with pytest.raises(ValueError, match="at least 2 assets"):
            ReturnsMatrix(np.zeros((5, 1)), ("a",))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="asset names"):
            ReturnsMatrix(np.zeros((5, 3)), ("a", "b"))

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ReturnsMatrix(bad, ("a", "b"))

    def test_not_two_dimensional(self):
        with pytest.raises(ValueError, match="2-d"):
            ReturnsMatrix(np.zeros(6), ("a", "b"))


class TestLoadReturnsCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n0.1,0.3\n0.3,0.1\n")
        rm = load_returns_csv(path)
        assert rm.asset_names == ("A", "B")
        np.testing.assert_array_equal(rm.values, [[0.1, 0.3], [0.3, 0.1]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n0.1,0.3\n0.3,0.1,0.9\n")
        with pytest.raises(ReturnsFormatError, match="line 3"):
            load_returns_csv(path)

    def test_single_data_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n0.1,0.3\n")
        with pytest.raises(ReturnsFormatError, match="at least 2 data rows"):
            load_returns_csv(path)

    def test_non_numeric_field_names_location(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n0.1,0.3\n0.3,oops\n")
        with pytest.raises(ReturnsFormatError) as excinfo:
            load_returns_csv(path)
        message = str(excinfo.value)
        assert "line 3" in message
        assert "column 2" in message
        assert "B" in message
        assert "oops" in message

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ReturnsFormatError, match="line 1"):
            load_returns_csv(path)

    def test_single_column_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A\n0.1\n0.2\n")
        with pytest.raises(ReturnsFormatError, match="at least 2"):
            load_returns_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_returns_csv(tmp_path / "absent.csv")

    def test_error_message_names_path(self, tmp_path):
        path = tmp_path / "weird.csv"
        path.write_text("A,B\n1,2\n3\n")
        with pytest.raises(ReturnsFormatError, match="weird.csv"):
            load_returns_csv(path)


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        rm = generate_synthetic_returns(5, 24, seed=3)
        path = tmp_path / "round.csv"
        write_returns_csv(rm, path)
        back = load_returns_csv(path)
        assert back.asset_names == rm.asset_names
        np.testing.assert_array_equal(back.values, rm.values)

    def test_serialized_header_first(self):
        rm = ReturnsMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ("x", "y"))
        text = returns_to_csv(rm)
        assert text.splitlines()[0] == "x,y"
        assert len(text.splitlines()) == 3


class TestEstimateStats:
    def test_two_point_sample(self):
        rm = ReturnsMatrix(np.array([[0.1, 0.3], [0.3, 0.1]]), ("A", "B"))
        stats = estimate_stats(rm)
        np.testing.assert_allclose(stats.mu, [0.2, 0.2], atol=1e-15)
        raw = np.array([[0.02, -0.02], [-0.02, 0.02]])
        # the raw two-point covariance is singular, so jitter must kick in
        assert stats.jitter_applied > 0
        np.testing.assert_allclose(
            stats.C, raw + stats.jitter_applied * np.eye(2), atol=1e-15)
        assert np.linalg.eigvalsh(stats.C)[0] > 0

    def test_constant_rows_give_jitter_identity(self):
        rm = ReturnsMatrix(np.tile([0.01, 0.02, 0.03], (4, 1)), ("a", "b", "c"))
        stats = estimate_stats(rm)
        assert stats.jitter_applied > 0
        np.testing.assert_allclose(
            stats.C, stats.jitter_applied * np.eye(3), atol=1e-18)

    def test_matches_two_pass_reference(self, rng):
        values = rng.normal(0.01, 0.02, size=(500, 10))
        stats = estimate_stats(ReturnsMatrix(values, tuple(f"A{i}" for i in range(10))))
        expected = two_pass_covariance(values)
        np.testing.assert_allclose(stats.C, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.mu, values.mean(axis=0), atol=1e-15)

    def test_well_conditioned_generator_needs_no_jitter(self):
        stats = estimate_stats(generate_synthetic_returns(10, 200, seed=7))
        assert stats.jitter_applied == 0.0

    def test_output_always_cholesky_factorizable(self):
        for seed in range(6):
            rm = generate_synthetic_returns(8, 12, seed=seed, noise_scale=0.0)
            stats = estimate_stats(rm)
            np.linalg.cholesky(stats.C)


class TestAssetStats:
    # AssetStats checks shapes only; the covariance is validated when a
    # problem is built from it
    def test_asymmetric_covariance_rejected(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]),
                           C=np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            build_problem(stats, 0.15)

    def test_indefinite_covariance_rejected(self):
        stats = AssetStats(mu=np.array([0.1, 0.2]),
                           C=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            build_problem(stats, 0.15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            AssetStats(mu=np.array([0.1, 0.2, 0.3]), C=np.eye(2))


class TestGenerateSyntheticReturns:
    def test_deterministic_in_seed(self):
        a = generate_synthetic_returns(6, 40, seed=11)
        b = generate_synthetic_returns(6, 40, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.asset_names == b.asset_names

    def test_different_seeds_differ(self):
        a = generate_synthetic_returns(6, 40, seed=11)
        b = generate_synthetic_returns(6, 40, seed=12)
        assert np.abs(a.values - b.values).max() > 0

    def test_shape_and_names(self):
        rm = generate_synthetic_returns(4, 30, seed=0)
        assert rm.values.shape == (30, 4)
        assert rm.asset_names == ("A1", "A2", "A3", "A4")

    def test_mean_range(self):
        for seed in range(8):
            rm = generate_synthetic_returns(7, 50, seed=seed)
            mu = rm.values.mean(axis=0)
            assert mu.min() >= 0.0
            assert mu.max() <= 0.02

    def test_single_factor_no_noise_is_rank_one(self):
        rm = generate_synthetic_returns(5, 60, seed=4, factor_count=1,
                                        noise_scale=0.0)
        raw = np.cov(rm.values, rowvar=False, ddof=1)
        for i in range(5):
            for j in range(i + 1, 5):
                minor = raw[i, i] * raw[j, j] - raw[i, j] * raw[j, i]
                assert abs(minor) <= 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"n": 1, "m": 10, "seed": 0},
        {"n": 5, "m": 1, "seed": 0},
        {"n": 5, "m": 10, "seed": 0, "factor_count": 0},
        {"n": 5, "m": 10, "seed": 0, "noise_scale": -0.1},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            generate_synthetic_returns(**kwargs)
