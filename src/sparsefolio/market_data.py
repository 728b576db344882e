"""Returns ingestion, moment estimation, and synthetic market generation.

The on-disk format is a plain UTF-8 CSV: a header row of asset names
followed by one row of fractional returns per observation period.  The
same layout is used for both input and generated output, so a file
written by :func:`returns_to_csv` parses back bit-for-bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

# estimate_stats lifts the smallest covariance eigenvalue to 2*JITTER_FLOOR
# when it does not clear JITTER_FLOOR.
JITTER_FLOOR = 1e-10


class ReturnsFormatError(ValueError):
    """A returns CSV violates the expected layout."""


@dataclass(frozen=True)
class ReturnsMatrix:
    """An m x n matrix of per-period returns; rows are periods, columns assets."""

    values: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "asset_names", tuple(self.asset_names))
        if values.ndim != 2:
            raise ValueError(f"returns must be a 2-d array, got shape {values.shape}")
        m, n = values.shape
        if m < 2:
            raise ValueError(f"need at least 2 observation periods, got {m}")
        if n < 2:
            raise ValueError(f"need at least 2 assets, got {n}")
        if len(self.asset_names) != n:
            raise ValueError(
                f"{len(self.asset_names)} asset names for {n} return columns"
            )
        if not np.isfinite(values).all():
            raise ValueError("returns contain non-finite entries")

    @property
    def periods(self) -> int:
        return self.values.shape[0]

    @property
    def assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AssetStats:
    """Sample mean vector and (conditioned) covariance of a returns matrix.

    PortfolioProblem validates the covariance; this only checks the shapes.
    """

    mu: np.ndarray
    C: np.ndarray
    jitter_applied: float = 0.0

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        C = np.asarray(self.C, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "C", C)
        n = mu.shape[0]
        if C.shape != (n, n):
            raise ValueError(f"covariance shape {C.shape} does not match {n} assets")
        if self.jitter_applied < 0:
            raise ValueError("jitter_applied must be nonnegative")


def load_returns_csv(path) -> ReturnsMatrix:
    """Parse a returns CSV with a header of asset names.

    The grammar is that of ``csv.reader`` (excel dialect) plus ``float()``:
    a header row of names (stripped of surrounding whitespace), then at
    least two data rows of exactly one number per name.  Quoted fields,
    CRLF or lone-CR line ends, a missing final newline and anything
    ``float()`` accepts (surrounding whitespace, ``1_0``, non-ASCII digits)
    are accepted.  A blank line is a row of zero fields and is rejected, as
    are non-finite values.

    A file whose data rows are plain numbers and commas, as returns_to_csv
    writes them, with any of the three line ends, takes one vectorised
    ``np.loadtxt`` pass.  A file that pass refuses (quoted fields, ``1_0``,
    non-ASCII digits, a blank line, a row of the wrong width, a bad number)
    and any input that cannot be re-read, such as a pipe, take the
    ``csv.reader`` row parser.  Both give bitwise-equal values, so the input
    alone decides the outcome.

    Raises ReturnsFormatError with the offending line (and column, for bad
    numbers) on any layout problem; missing files surface as the usual
    FileNotFoundError.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        if not handle.seekable():
            return _load_rows(path, handle)
        returns = _load_vectorised(handle)
    if returns is None:
        with open(path, newline="", encoding="utf-8") as handle:
            returns = _load_rows(path, handle)
    return returns


# Data lines sent to the row parser without a loadtxt attempt.  np.loadtxt
# skips a blank line, which the row parser rejects as a row of zero fields,
# and strips the ASCII separators 0x1c-0x1f around a number, which float()
# keeps.  A quote would make loadtxt fail, but only on reaching its line.
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
_ROW_PARSER_CHARS = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _vectorisable(line: str, field_limit: int) -> bool:
    """False if this data line must go to the row parser.

    Besides the cases above, csv.reader refuses a field longer than
    csv.field_size_limit(), which np.loadtxt would read.
    """
    if line in _BLANK_LINES or any(char in line for char in _ROW_PARSER_CHARS):
        return False
    return len(line) <= field_limit or max(
        map(len, line.rstrip("\r\n").split(","))) <= field_limit


def _load_vectorised(handle):
    """The returns from one np.loadtxt pass, or None if it may differ.

    The result is kept only when every data line is _vectorisable, loadtxt
    raises nothing, and it returns one row per data line and one column per
    header name.
    """
    try:
        header = next(csv.reader(iter(handle.readline, "")), None)
        if header is None or len(header) < 2:
            return None
        body = handle.tell()
        field_limit = csv.field_size_limit()
        lines = 0
        for line in handle:
            if not _vectorisable(line, field_limit):
                return None
            lines += 1
        if lines < 2:
            return None
        handle.seek(body)
        values = np.loadtxt(handle, delimiter=",", comments=None,
                            quotechar=None, dtype=float, ndmin=2)
    except (ValueError, csv.Error):
        return None
    if values.shape != (lines, len(header)):
        return None
    return ReturnsMatrix(values, tuple(name.strip() for name in header))


def _load_rows(path, handle):
    """The returns via csv.reader and float(), naming any bad row's first line."""
    reader = csv.reader(handle)
    rows = [(reader.line_num, row) for row in reader]  # (last line, fields)
    if not rows:
        raise ReturnsFormatError(f"{path}: line 1: empty file, expected a header row")
    names = [name.strip() for name in rows[0][1]]
    n = len(names)
    if n < 2:
        raise ReturnsFormatError(
            f"{path}: line 1: header names {n} asset column(s), need at least 2"
        )
    data = []
    for (above, _), (_, row) in zip(rows, rows[1:]):
        line = above + 1  # a row starts on the line after the one above ends
        if len(row) != n:
            raise ReturnsFormatError(
                f"{path}: line {line}: expected {n} fields, got {len(row)}"
            )
        parsed = []
        for col, token in enumerate(row):
            try:
                parsed.append(float(token))
            except ValueError:
                raise ReturnsFormatError(
                    f"{path}: line {line}, column {col + 1} ({names[col]}): "
                    f"not a number: {token!r}"
                ) from None
        data.append(parsed)
    if len(data) < 2:
        raise ReturnsFormatError(
            f"{path}: need at least 2 data rows, got {len(data)}"
        )
    return ReturnsMatrix(np.array(data, dtype=float), tuple(names))


def returns_to_csv(returns: ReturnsMatrix) -> str:
    """Serialize to the CSV layout accepted by load_returns_csv.

    Floats are written with repr so a round trip reproduces values exactly.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(returns.asset_names)
    for row in returns.values:
        writer.writerow([repr(float(v)) for v in row])
    return buffer.getvalue()


def write_returns_csv(returns: ReturnsMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(returns_to_csv(returns))


def estimate_stats(returns: ReturnsMatrix) -> AssetStats:
    """Column means and the unbiased (1/(m-1)) sample covariance.

    If the smallest covariance eigenvalue does not clear JITTER_FLOOR, a
    diagonal shift of (2*JITTER_FLOOR - lambda_min) is added so the result
    is safely positive definite; the shift is reported in ``jitter_applied``.

    A Cholesky factorization of C - JITTER_FLOOR*I that succeeds shows the
    eigenvalue clears the floor (to rounding of order eps*||C||), at a
    quarter of the cost of eigvalsh at n=500; only when it fails are the
    eigenvalues computed for the shift.
    """
    values = returns.values
    mu = values.mean(axis=0)
    C = np.cov(values, rowvar=False, ddof=1)
    C = 0.5 * (C + C.T)
    n = returns.assets
    jitter = 0.0
    try:
        np.linalg.cholesky(C - JITTER_FLOOR * np.eye(n))
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(C)[0])
        if smallest <= JITTER_FLOOR:
            jitter = JITTER_FLOOR - smallest + JITTER_FLOOR
            C = C + jitter * np.eye(n)
    return AssetStats(mu=mu, C=C, jitter_applied=jitter)


def generate_synthetic_returns(n: int, m: int, seed: int,
                               factor_count: int = 3,
                               noise_scale: float = 0.01) -> ReturnsMatrix:
    """Deterministic factor-model returns with per-asset means in [0, 0.02].

    Returns are mean + centered(loadings @ factors + noise), so the sample
    column means equal the drawn means exactly.  Lowering ``noise_scale``
    or ``factor_count`` drives the sample covariance toward singularity,
    which is useful for conditioning experiments.
    """
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if m < 2:
        raise ValueError(f"need at least 2 periods, got {m}")
    if factor_count < 1:
        raise ValueError(f"need at least 1 factor, got {factor_count}")
    if noise_scale < 0:
        raise ValueError("noise_scale must be nonnegative")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.002, 0.018, size=n)
    loadings = rng.normal(0.0, 0.02, size=(n, factor_count))
    factors = rng.standard_normal((m, factor_count))
    noise = rng.normal(0.0, noise_scale, size=(m, n)) if noise_scale > 0 else 0.0
    stochastic = factors @ loadings.T + noise
    stochastic = stochastic - stochastic.mean(axis=0)
    names = tuple(f"A{i + 1}" for i in range(n))
    return ReturnsMatrix(means + stochastic, names)
