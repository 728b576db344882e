"""Byte-level pin of the exhaustive oracle's results.

The digests cover the bytes of weights, multiplier and subgradient plus
repr(objective) and unique, instance by instance, so any change to how the
enumeration builds or solves its systems that moves a single bit fails here.
The instances are those the acceptance and benchmark gates compare against:
test 1's 100 instances and the 15 bench-suite instances (3 suites x 5 trials,
seed 0).  The digests are those of BLAS on one thread, which
tests/conftest.py sets for every test: on two threads the weight and
multiplier bytes of bench-suite random trials 0, 2 and 3 differ, and the
bench-suite digest was recorded again when that setting came in.
"""

import hashlib

import pytest

from exhaustive_oracle import enumerate_solve
from sparsefolio.lambda_controller import initial_lambda
from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import build_problem
from sparsefolio.suites import SUITES, make_suite_instances


def acceptance_instances():
    for i in range(100):
        n = 3 + i % 6
        mu, C = estimate_stats(generate_synthetic_returns(n, 60, 1000 + i,
                                                          noise_scale=0.03))
        e = 0.5 * (float(mu.min()) + float(mu.max()))
        lam0 = initial_lambda(60, n)
        yield build_problem(mu, C, e), (0.0, lam0, 10.0 * lam0)[(i // 6) % 3]


def bench_instances():
    for suite in SUITES:
        yield from make_suite_instances(suite, trials=5, seed=0)


def digest(instances):
    h = hashlib.sha256()
    for problem, lam in instances:
        res = enumerate_solve(problem, lam)
        for array in (res.weights, res.multiplier, res.subgradient):
            h.update(array.tobytes())
        h.update(repr(res.objective).encode())
        h.update(repr(res.unique).encode())
    return h.hexdigest()


@pytest.mark.parametrize("instances, expected", [
    (acceptance_instances,
     "877c90f14f223f9475bad2a487721a5dd4ee9b3fe965ef317a2dfd29848e8134"),
    (bench_instances,
     "57a08d26c3f57e41ace4a5eb833e447a6b98763fca34db0e2efc5dc3ad8597e9"),
], ids=["test_1", "bench_suites"])
def test_oracle_results_are_pinned(instances, expected):
    assert digest(instances()) == expected
