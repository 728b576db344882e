import csv
import math
import os
import sys
from decimal import Context, Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefolio import market_data
from sparsefolio.market_data import (
    JITTER_FLOOR,
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


class TestCsvGrammar:
    """The accepted grammar: csv.reader's excel dialect plus float()."""

    def load_text(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        return path, load_returns_csv(path)

    def expect_error(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ReturnsFormatError) as excinfo:
            load_returns_csv(path)
        return path, str(excinfo.value)

    def test_blank_line_mid_file_rejected(self, tmp_path):
        path, message = self.expect_error(tmp_path, "A,B\n0.1,0.2\n\n0.3,0.4\n")
        assert message == f"{path}: line 3: expected 2 fields, got 0"

    def test_blank_line_at_end_rejected(self, tmp_path):
        path, message = self.expect_error(tmp_path, "A,B\n0.1,0.2\n0.3,0.4\n\n")
        assert message == f"{path}: line 4: expected 2 fields, got 0"

    def test_whitespace_only_line_rejected(self, tmp_path):
        path, message = self.expect_error(tmp_path, "A,B\n0.1,0.2\n  \n0.3,0.4\n")
        assert message == f"{path}: line 3: expected 2 fields, got 1"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_line_ends(self, tmp_path, end):
        _, rm = self.load_text(tmp_path, end.join(["A,B", "0.1,0.2", "0.3,0.4", ""]))
        assert rm.asset_names == ("A", "B")
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])

    def test_quoted_header_names(self, tmp_path):
        _, rm = self.load_text(tmp_path, '"Acme, Inc."," B "\n0.1,0.2\n0.3,0.4\n')
        assert rm.asset_names == ("Acme, Inc.", "B")
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])

    def test_quoted_header_name_keeps_its_line_end(self, tmp_path):
        _, rm = self.load_text(tmp_path, '"A\r\nB",C\r\n0.1,0.2\r\n0.3,0.4\r\n')
        assert rm.asset_names == ("A\r\nB", "C")
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])

    def test_quoted_numeric_fields(self, tmp_path):
        _, rm = self.load_text(tmp_path, 'A,B\n"0.1",0.2\n0.3," 0.4 "\n')
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])

    def test_underscore_digits(self, tmp_path):
        _, rm = self.load_text(tmp_path, "A,B\n1_0,0.2\n0.3,0.4\n")
        assert rm.values[0, 0] == 10.0

    def test_no_trailing_newline(self, tmp_path):
        _, rm = self.load_text(tmp_path, "A,B\n0.1,0.2\n0.3,0.4")
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])

    def test_bad_token_in_quoted_file_names_location(self, tmp_path):
        path, message = self.expect_error(tmp_path, 'A,B\n"0.1",0.2\n0.3,x\n')
        assert message == f"{path}: line 3, column 2 (B): not a number: 'x'"

    def test_bad_token_after_multiline_header_names_physical_line(self, tmp_path):
        path, message = self.expect_error(tmp_path, '"A\nlong",B\n1.0,2.0\n3.0,x\n')
        assert message == f"{path}: line 4, column 2 (B): not a number: 'x'"

    def test_ragged_row_after_multiline_field_names_physical_line(self, tmp_path):
        path, message = self.expect_error(
            tmp_path, 'A,B\n"1.0\n",2.0\n3.0,4.0,5.0\n')
        assert message == f"{path}: line 4: expected 2 fields, got 3"

    def test_field_over_csv_limit_rejected(self, tmp_path):
        long_number = "0." + "0" * csv.field_size_limit() + "1"
        path = tmp_path / "r.csv"
        path.write_text(f"A,B\n{long_number},0.2\n0.3,0.4\n")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_returns_csv(path)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads a pipe through /dev/fd")
    def test_pipe_input(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"A,B\n0.1,0.2\n0.3,0.4\n")
            os.close(write_end)
            rm = load_returns_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        np.testing.assert_array_equal(rm.values, [[0.1, 0.2], [0.3, 0.4]])


class TestParsePath:
    """Which files take the orjson pass and which the row parser."""

    def takes_row_parser(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(market_data, "_load_rows",
                               wraps=market_data._load_rows) as rows:
            try:
                load_returns_csv(path)
            except ValueError:
                pass
        return rows.called

    @pytest.mark.parametrize("text", [
        "A,B\n0.1,0.2\n0.3,0.4\n",
        "A,B\r\n0.1,0.2\r\n0.3,0.4\r\n",
        "A,B\r0.1,0.2\r0.3,0.4\r",
        "A,B\n0.1,0.2\n0.3,0.4",
        '"A, Inc.",B\n 0.1 ,-0.2e-3\n3E0,\t4.5\n',
        "A,B\n1.0,-0.0\n0.3,1e+5\n",
    ], ids=["plain", "crlf", "lone-cr", "no-final-newline", "quoted-header",
            "integral-floats"])
    def test_vectorised(self, tmp_path, text):
        assert not self.takes_row_parser(tmp_path, text)

    @pytest.mark.parametrize("text", [
        'A,B\n"0.1",0.2\n0.3,0.4\n',
        "A,B\n1_0,0.2\n0.3,0.4\n",
        "A,B\n１,0.2\n0.3,0.4\n",
        "A,B\n0.1,0.2\n\n0.3,0.4\n",
        "A,B\n0.1,0.2\n0.3,0.4\n\n",
        "A,B\n0.1,0.2\n  \n0.3,0.4\n",
        "A,B\n\x1c0.1,0.2\n0.3,0.4\n",
        "A,B\n0.1,0.2\n0.3,0.4,0.5\n",
        "A,B\n0.1,0.2\n",
        "A\n0.1\n0.2\n",
        '"A, Inc.",B\n 0.1 ,-0.2e-3\n+3,4.5\n',
        "A,B\n0.1,0.2\n0.3,4.\n",
        "A,B\n0.1,0.2\n0.3,inf\n",
        "A,B\n0.1,0.2\n0.3,7\n",
        "A,B\n0.1,0.2\n-0,0.4\n",
        "A,B\n0.1,0.2\n0.3,true\n",
    ], ids=["quoted-field", "underscore", "full-width", "blank-line",
            "blank-last-line", "whitespace-line", "file-separator",
            "ragged", "one-row", "one-column", "plus-sign", "trailing-dot",
            "non-finite", "integer", "negative-zero", "json-true"])
    def test_row_parser(self, tmp_path, text):
        assert self.takes_row_parser(tmp_path, text)


def outcome(path):
    """What load_returns_csv does with a file, in comparable form."""
    try:
        rm = load_returns_csv(path)
    except (ValueError, csv.Error) as error:
        return type(error), str(error)
    return rm.asset_names, rm.values.shape, rm.values.tobytes()


def row_parser_outcome(path):
    """outcome(path) with the orjson pass turned off."""
    with mock.patch.object(market_data, "_load_fast", lambda handle: None):
        return outcome(path)


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_TOKENS = ["", " ", "0.5 ", "\t-2", "1_0", "１", "٣.5", "\xa01", "\x1c1",
               "2\x1f", "x", "0x10", "1e999", "nan", "-inf", "1.", ".", "+.5",
               "#1", "1d5", "\x001", "\udcff", "-0", "0", "7", "+1", "01",
               ".5", "5.", "1E5", "1e+5", "true", "null", "[1]", "{}",
               "1e400", '"1.5"']
_DEFECTS = ["token", "quote", "blank", "spaces", "short", "long", "end"]


@st.composite
def returns_files(draw):
    """Raw bytes of a returns CSV: well formed, or with up to two defects."""
    n = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(["A", " B ", '"C, D"', '"E"', "F",
                                      '"G\r\nH"']))
              for _ in range(n)]
    rows = [[draw(_NUMBER) for _ in range(n)]
            for _ in range(draw(st.integers(0, 5)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [end] * (len(rows) + 1)
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        i = draw(st.integers(0, len(rows)))
        if defect == "blank" or defect == "spaces":
            rows.insert(i, [""] if defect == "blank" else ["  "])
            ends.insert(i + 1, end)
        elif defect == "end":
            ends[i] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        elif i < len(rows) and rows[i]:
            row, j = rows[i], draw(st.integers(0, len(rows[i]) - 1))
            if defect == "token":
                row[j] = draw(st.sampled_from(_ODD_TOKENS))
            elif defect == "quote":
                row[j] = f'"{row[j]}"'
            elif defect == "short":
                row.pop(j)
            else:
                row.insert(j, draw(_NUMBER))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "".join(line + term for line, term in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=returns_files())
def test_vectorised_pass_matches_row_parser(tmp_path_factory, data):
    """The orjson pass, where it is taken, returns what the row parser does."""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(data)
    assert outcome(path) == row_parser_outcome(path)


@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_odd_token_matches_row_parser(tmp_path, token):
    """Each odd token, in an otherwise plain file, reads as in the row parser."""
    path = tmp_path / "odd.csv"
    path.write_bytes(f"A,B\n0.1,{token}\n0.3,0.4\n".encode("utf-8", "surrogateescape"))
    assert outcome(path) == row_parser_outcome(path)


_SIGNED_ZEROS = ["0.0", "-0.0", "0e0", "-0E-5", "-0.0e300", "-1e-400", "1e-400"]


def arbitrary_double(rng):
    """A finite double of random sign, exponent and mantissa bits in [1e-300, 1e300]."""
    x = math.ldexp(1 + rng.getrandbits(52) / 2**52, rng.randint(-996, 995))
    return -x if rng.random() < 0.5 else x


def rounding_tokens(x):
    """repr(x), and decimal strings at and around the midpoint above |x|.

    The midpoint of x and the next double away from zero is exact in
    Decimal; it is written in full, with a digit appended (just above it),
    and cut to 17, 20 and 26 significant digits, each cut also rounded up
    in its last digit.
    """
    with localcontext(Context(prec=1000)):
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.copysign(math.inf, x)))) / 2
    sign, digits, exponent = mid.as_tuple()
    sign = "-" if sign else ""
    digits = "".join(map(str, digits))
    tokens = [repr(x), f"{sign}{digits}e{exponent}", f"{sign}{digits}1e{exponent - 1}"]
    for keep in (17, 20, 26):
        cut = exponent + max(len(digits) - keep, 0)
        tokens += [f"{sign}{digits[:keep]}e{cut}",
                   f"{sign}{int(digits[:keep]) + 1}e{cut}"]
    return tokens


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=True))
def test_fast_path_rounds_like_float(tmp_path_factory, rng):
    """The orjson pass gives float()'s double for every token, signed zeros too."""
    tokens = list(_SIGNED_ZEROS)
    for _ in range(320):
        tokens += rounding_tokens(arbitrary_double(rng))
    width = 10
    tokens += ["0.5"] * (-len(tokens) % width)
    rows = [",".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
    path = tmp_path_factory.getbasetemp() / "rounding.csv"
    path.write_text("\n".join([",".join(["A"] * width)] + rows) + "\n")
    with mock.patch.object(market_data, "_load_rows",
                           side_effect=AssertionError("took the row parser")):
        parsed = load_returns_csv(path).values.ravel()
    expected = np.array([float(token) for token in tokens])
    wrong = np.flatnonzero(parsed.view(np.uint64) != expected.view(np.uint64))
    assert [tokens[i] for i in wrong] == []


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

    @pytest.mark.parametrize("factor", [-1.0, 0.0, 0.5, 0.99, 1.01, 2.0, 1e6])
    def test_shift_matches_eigenvalue_rule(self, rng, factor):
        # a covariance whose smallest eigenvalue is factor * JITTER_FLOOR; the
        # Cholesky screen must give the shift the eigenvalue rule gives
        n = 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.concatenate([[factor * JITTER_FLOOR], np.logspace(-6, -3, n - 1)])
        cov = (Q * spectrum) @ Q.T
        rm = ReturnsMatrix(rng.standard_normal((20, n)), tuple("abcdef"))
        with mock.patch.object(np, "cov", return_value=cov):
            stats = estimate_stats(rm)
        C = 0.5 * (cov + cov.T)
        smallest = float(np.linalg.eigvalsh(C)[0])
        jitter = 0.0
        if smallest <= JITTER_FLOOR:
            jitter = JITTER_FLOOR - smallest + JITTER_FLOOR
            C = C + jitter * np.eye(n)
        assert (jitter > 0) == (factor <= 1)
        assert stats.jitter_applied == jitter
        np.testing.assert_array_equal(stats.C, C)

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
