"""Returns ingestion, moment estimation, and synthetic market generation.

The on-disk format is a plain UTF-8 CSV: a header row of asset names
followed by one row of fractional returns per observation period.  The
same layout is used for both input and generated output, so a file
written by :func:`returns_to_csv` parses back bit-for-bit.  Such a file
is streamed as bytes, line by line, through orjson's correctly rounded
number reader into one float64 buffer; any other file is read by
``csv.reader`` and ``float()``, which give the same values and also name
the line of any error.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from itertools import islice

import numpy as np
import orjson
from scipy.linalg import get_lapack_funcs

# estimate_stats lifts the smallest covariance eigenvalue to 2*JITTER_FLOOR
# when it does not clear JITTER_FLOOR.
JITTER_FLOOR = 1e-10

_potrf = get_lapack_funcs("potrf", dtype=np.float64)

# The bytes _lines reads at a time.
_BLOCK = 1 << 16


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


def load_returns_csv(path) -> ReturnsMatrix:
    """Parse a returns CSV with a header of asset names.

    The grammar is that of ``csv.reader`` (excel dialect) plus ``float()``:
    a header row of names (stripped of surrounding whitespace), then at
    least two data rows of exactly one number per name.  Quoted fields,
    CRLF or lone-CR line ends, a missing final newline and anything
    ``float()`` accepts (surrounding whitespace, ``1_0``, non-ASCII digits)
    are accepted.  A blank line is a row of zero fields and is rejected, as
    are non-finite values.

    A file whose data rows are JSON numbers with a fraction or an exponent,
    separated by commas, as returns_to_csv writes them, with any of the
    three line ends, is streamed as bytes, one line at a time, through
    orjson into one float64 buffer; the file is never held whole.  Any
    other file and any input that cannot be re-read, such as a pipe, take
    the ``csv.reader`` row parser: quoted fields, blank lines, rows of the
    wrong width, bad numbers, and valid numbers outside JSON's grammar or
    its floats (``+3``, ``4.``, ``.5``, ``01``, integers, ``inf``, ``nan``).
    Both give bitwise-equal values, so the input alone decides the outcome.

    Raises ReturnsFormatError with the offending line (and column, for bad
    numbers) on any layout problem, a field longer than
    csv.field_size_limit() included; missing files surface as the usual
    FileNotFoundError.
    """
    with open(path, "rb") as handle:
        if handle.seekable():
            returns = _load_fast(handle)
            if returns is not None:
                return returns
            handle.seek(0)
        with io.TextIOWrapper(handle, encoding="utf-8", newline="") as text:
            return _load_rows(path, text)


def _lines(handle):
    """The lines of a binary file as text mode with newline="" splits them.

    A line ends at LF, CRLF or a lone CR and keeps its line end.  The file
    is read in blocks and each block split by bytes.splitlines, which
    breaks at exactly those three; the last piece may be cut short, or be
    a CR whose LF comes next, so it is carried into the next block.  A
    block is at least as long as the piece carried, so a line longer than
    a block is copied a bounded number of times.  Whatever the line ends,
    only one block's lines and the piece carried are held at a time.
    """
    head = b""
    while block := handle.read(max(_BLOCK, len(head))):
        lines = (head + block).splitlines(keepends=True)
        head = lines.pop()
        yield from lines
    if head:
        yield head


def _load_fast(handle):
    """The returns from one orjson pass over the data lines, or None if it may differ.

    The binary file is streamed line by line: the header goes through
    csv.reader, so a quoted name may span lines, and each data line is
    parsed as the JSON array "[line]" and packed straight into one float64
    buffer.  JSON's number grammar is a subset of float()'s and leaves out
    quotes, blank lines and the whitespace float() strips beyond space and
    tab, so every line the row parser would read differently fails to
    parse or gives something other than one float per header name.
    Strings, null, arrays, objects and rows of the wrong width make the
    pack raise struct.error.  It takes JSON integers (whose -0 loses its
    sign) and booleans, but they give integral values, so only the rows
    holding one are checked for non-floats, on a second read.  Bytes that
    are not UTF-8 fail to decode or to parse.  csv.reader refuses a field
    longer than csv.field_size_limit(), which this pass would read; it is
    measured in bytes, as many as its characters in a line JSON can read.
    """
    try:
        lines = _lines(handle)
        reader = csv.reader(line.decode() for line in lines)
        header = next(reader, None)
        if header is None or len(header) < 2:
            return None
        n = len(header)
        header_lines = reader.line_num
        field_limit = csv.field_size_limit()
        pack = struct.Struct(f"{n}d").pack
        values = bytearray()
        for line in lines:
            if len(line) > field_limit and max(map(len, line.split(b","))) > field_limit:
                return None
            values += pack(*orjson.loads(b"[" + line + b"]"))
        matrix = np.frombuffer(values).reshape(-1, n)
        if len(matrix) < 2:
            return None
        integral = (matrix == np.trunc(matrix)).any(axis=1)
        if integral.any():
            handle.seek(0)
            for line, check in zip(islice(_lines(handle), header_lines, None), integral):
                if check and not all(type(v) is float
                                     for v in orjson.loads(b"[" + line + b"]")):
                    return None
    except (ValueError, struct.error, csv.Error):
        return None
    return ReturnsMatrix(matrix, tuple(name.strip() for name in header))


def _load_rows(path, handle):
    """The returns via csv.reader and float(), naming any bad row's first line."""
    reader = csv.reader(handle)
    try:
        rows = [(reader.line_num, row) for row in reader]  # (last line, fields)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ReturnsFormatError(f"{path}: line {reader.line_num}: {exc}") from None
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


def estimate_stats(returns: ReturnsMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The column means mu and the unbiased (1/(m-1)) sample covariance C.

    If the smallest eigenvalue of C does not clear JITTER_FLOOR, C gets a
    diagonal shift of (2*JITTER_FLOOR - lambda_min) that makes it safely
    positive definite.

    A Cholesky factorization of C - JITTER_FLOOR*I that succeeds shows the
    eigenvalue clears the floor (to rounding of order eps*||C||), at a
    quarter of the cost of eigvalsh at n=500; only when it fails are the
    eigenvalues computed for the shift.  It is one LAPACK potrf on a copy
    of C with the floor taken off its diagonal.
    """
    values = returns.values
    mu = values.mean(axis=0)
    C = np.cov(values, rowvar=False, ddof=1)
    shifted = C.copy(order="F")
    shifted.flat[::returns.assets + 1] -= JITTER_FLOOR
    if _potrf(shifted, lower=True, clean=False, overwrite_a=True)[1]:
        smallest = float(np.linalg.eigvalsh(C)[0])
        if smallest <= JITTER_FLOOR:
            C = C + (JITTER_FLOOR - smallest + JITTER_FLOOR) * np.eye(returns.assets)
    return mu, C


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
