"""Byte-level pin of the command-line outputs.

Every case runs one command through ``main`` on the CSV written by
``gen --assets 10 --periods 120 --seed 3`` and hashes its exit code and
output bytes.  A ``solve`` JSON is hashed without ``config_echo``, which
echoes the flags rather than the solve; it is dumped back with the
command's own formatting, which reproduces every other byte because a
float's repr round-trips through JSON.  A ``bench`` row is hashed without
``wall_time_s``.  The cases: a solve per strategy, an adaptive-lambda rbb
solve with its history, an rbb solve whose weights hold shorts, an
adaptive solve whose guard moves lambda, a 3-point frontier and a 2-trial
bench.
"""

import hashlib
import json

import pytest

from sparsefolio.cli import main

# case: (command line after the input, sha256 of exit code and output)
CASES = {
    "solve-fixed": (("solve", "--strategy", "fixed"),
        "248900705995478ee5d3d5c988aafda7753a5d4f0e7cef873c1498413ea842d2"),
    "solve-rb": (("solve", "--strategy", "rb"),
        "5b8ef68721dc41d5286e4ea5cb7b92d41fccffcc33b3879e6f63804d045ec5f6"),
    "solve-bb": (("solve", "--strategy", "bb"),
        "c00212c857eb398e11d236d5867205d8fd9e339ca04a735f6fae2b4faf90fcc7"),
    "solve-rbb": (("solve", "--strategy", "rbb"),
        "7491d9e98af28a8197e144f32aecb324948d1e97971ac1cb88c486e2a6dd36d4"),
    "solve-rbb-adaptive-history": (
        ("solve", "--strategy", "rbb", "--adaptive-lambda", "--history"),
        "7916d6fb7729bf6dffd94c62694c4959be3b92b5b358e9fa94d76a143fb71d92"),
    # weights with seven entries below -ZERO_TOL, so short_count is 7
    "solve-rbb-shorts": (("solve", "--target-return", "0.014"),
        "6263b807cf8841e21e702b6350561b7ddb4f8caaa0ba0b3098d0b2bf30f91434"),
    # the guard moves lambda, then the budget runs out (exit 3)
    "solve-rbb-adaptive-moves": (
        ("solve", "--target-return", "0.0148", "--adaptive-lambda"),
        "3e6fcb9fc773e020e7d585c4ddbf77f6d911dfe6bfcd0c057c5c1f54f62596a8"),
    "frontier-3": (("frontier", "--points", "3"),
        "ef603395be4edda90ace00c89f0fa8cbd285fdf43bba33c09f81ec13df7a1d7a"),
    "bench-2": (("bench", "--trials", "2"),
        "128c6180410f92935160602ca12a19c771e3cb5b71150df6e74799f2d9825167"),
}


@pytest.fixture(scope="module")
def returns_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "returns.csv"
    assert main(["gen", "--assets", "10", "--periods", "120", "--seed", "3",
                 "-o", str(path)]) == 0
    return str(path)


def pinned_bytes(command, text):
    if command == "solve":
        payload = json.loads(text)
        del payload["config_echo"]
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    if command == "bench":
        rows = text.splitlines()
        assert rows[0].endswith(",wall_time_s")
        return "\n".join(row.rsplit(",", 1)[0] for row in rows).encode()
    return text.encode()


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_pinned(returns_csv, tmp_path, case):
    (command, *flags), expected = CASES[case]
    out = tmp_path / "out"
    inputs = [] if command == "bench" else ["--input", returns_csv]
    code = main([command, *inputs, *flags, "-o", str(out)])
    h = hashlib.sha256(repr(code).encode())
    h.update(pinned_bytes(command, out.read_text(encoding="utf-8")))
    assert h.hexdigest() == expected
