"""Byte-level pin of the command-line outputs.

Every case runs one command through ``main`` on the CSV written by
``gen --assets 10 --periods 120 --seed 3`` and hashes its exit code and
output bytes.  A ``solve`` JSON is hashed without ``config_echo``, which
echoes the flags rather than the solve; it is dumped back with the
command's own formatting, which reproduces every other byte because a
float's repr round-trips through JSON.  A ``bench`` row is hashed without
``wall_time_s``.  The cases: a solve per strategy, an adaptive-lambda rbb
solve with its history, an rbb solve whose weights hold shorts, one whose
x held shorts of noise that its certified weights do not, an adaptive
solve whose guard moves lambda, a 3-point frontier and a 2-trial bench.
"""

import hashlib
import json

import pytest

from sparsefolio.cli import main

# case: (command line after the input, sha256 of exit code and output)
CASES = {
    "solve-fixed": (("solve", "--strategy", "fixed"),
        "bccea64ff457fb9c6dac725a5e37f4f8e9131ac7c6632a47ab859ee7f7ce47b3"),
    "solve-rb": (("solve", "--strategy", "rb"),
        "d64a673e34d98ec4a1c779389a31fa6ccd1e185fc83eb4bc2e70e2b3e2823d2b"),
    "solve-bb": (("solve", "--strategy", "bb"),
        "8d4000130546aa6bb7d3d0c7e3ff468e30cf8907126c3d1ba3b5a113df5cd5b8"),
    "solve-rbb": (("solve", "--strategy", "rbb"),
        "8d4000130546aa6bb7d3d0c7e3ff468e30cf8907126c3d1ba3b5a113df5cd5b8"),
    "solve-rbb-adaptive-history": (
        ("solve", "--strategy", "rbb", "--adaptive-lambda", "--history"),
        "0f9a37d5f0c10204e50566d84a6c97966f01085fc06dff35d63286525b818137"),
    # a certified optimum with two shorts, so short_count is 2
    "solve-rbb-shorts": (("solve", "--target-return", "0.0034"),
        "fff6d0ac9b9e1cf87f94beeb9f55cb77d24e6c0fe930f0646ebfed56b9a6031c"),
    # x held seven entries below -ZERO_TOL, noise of about 1e-7; the
    # certified weights hold none
    "solve-rbb-noise-shorts": (("solve", "--target-return", "0.014"),
        "7b0b3326e454c1297d4e5e0bb233f13c5a2b35913d6040ea27bfcca0a5db5235"),
    # the guard moves lambda four times; the last run's z holds one asset
    # whose mean misses the target, and the finish certifies the optimum
    # from its cheapest feasible pair (exit 0)
    "solve-rbb-adaptive-moves": (
        ("solve", "--target-return", "0.0148", "--adaptive-lambda"),
        "f2f7c9aa4873fabed9c0adc94fd072ea874f25aa6bdd88d62e8e1e23122a735f"),
    "frontier-3": (("frontier", "--points", "3"),
        "3951a9ba23d0f77c2b559595c2e4852154b6f4017564c38b3e2d7e89f4c320e7"),
    "bench-2": (("bench", "--trials", "2"),
        "21efd97fe333f48f3e515dbf3a509b0bb1dc8678dced21b39022b7e8d941a644"),
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
