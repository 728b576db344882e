"""Pinned solver trajectories: a sha256 over every iterate of a solve.

test_iterates_pinned.py pins where a solve ends; this file pins the whole
path to it.  Through ``callback``, each case hashes every IterateState in
order: x, z, y and ybar (when set) as the bytes of ``v + 0.0``, which
folds -0.0 into 0.0 so that only the sign of a zero may differ, then k,
rho, lam, r_norm and d_norm as IEEE doubles.  A change that claims
IEEE-equal iterates must pass this file unchanged.  The fixed cases, whose
x-steps take the inverse of the KKT block, were recorded again when that
inverse came in.

Cases use the configurations of test_iterates_pinned.py: trial 0 of each
suite with each strategy, and frontier points 0, 3, 4 and 12.  An adaptive
solve's trajectory runs through every run, each counting k from 0.
"""

import hashlib
import struct

import numpy as np
import pytest

from sparsefolio.admm_engine import SolverConfig, solve
from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import build_problem
from sparsefolio.penalty import PENALTY_KINDS, PenaltyConfig
from sparsefolio.suites import SUITES, make_suite_instances

# (suite, strategy): (iterations, sha256 of the trajectory)
SUITE_TRAJECTORIES = {
    ("random", "fixed"): (5000, "abb5bdff427663a5444fb92755578626a3c752e06fa3d4df77ed98ddc5f83d73"),
    ("random", "rb"): (27, "288bae3bfe878465113f36d9c46c0386ac2c31044e838fda126536a46ecb1522"),
    ("random", "bb"): (9, "907ee7ae5e47f5d0a9c89c4205f176b7994b95208acda6fc5c087f467b799b71"),
    ("random", "rbb"): (9, "a3ab1dd8898b0d79049404346ab429f8a120265c5dfc64e2c26057191263061a"),
    ("illcond", "fixed"): (5000, "fd48f727d7f446e1916595a7e9dcbf2f2b86f651a71d14eab100a3fbd03203b2"),
    ("illcond", "rb"): (2448, "ad1559956f81428f7d4fddef8b268e4e49ec77c0252aef8d3797f57b1370b819"),
    ("illcond", "bb"): (321, "a22c619e82bfaa6d0f8553792f2f9f0f3bb2bf738ec213aba68dee9372ebc40f"),
    ("illcond", "rbb"): (215, "f09961f1befa45bfd5266b8d591a29a38a2d9e0d72b88eea7ac460da1a89d5e0"),
    ("shorts", "fixed"): (5000, "97bddc76471dbd475891f965bd691f556f1f1acbbdabf1f49b2f00f09b08e28a"),
    ("shorts", "rb"): (511, "f89877e76461c984861129141cf5877f8ba9ba75db01fce55cb44293f215857f"),
    ("shorts", "bb"): (176, "ccb4a49cc8d21d44dce4077678eaab6493075bdee7ea6bd3c71f150ebfb25f2f"),
    ("shorts", "rbb"): (317, "44f463d826a0bba5447f2f6c906ebe85c89c4fb93f45b17c5ec845d95448c69a"),
}

# frontier point: (iterations, sha256 of the trajectory)
FRONTIER_TRAJECTORIES = {
    0: (1187, "f8c6d9cf46998ec8a3e2fa5bdbce6544e7a53447d25876fd52fca9282d4830e9"),
    3: (89, "0381fc679e528516f0f9849aa7ef803bee22efaa42aba9663293982c57ce4fca"),
    4: (60, "8c33d16435dbdeb7cd58984aa23439b73fbcf055320ff441e2035e7207f98e8b"),
    12: (47, "0900f8eabaf63de324bc2d906ba5f26435589867ba0a036d281f4e162089e83e"),
}
FRONTIER_POINTS = 20


def trajectory_digest(problem, cfg):
    digest = hashlib.sha256()
    count = 0

    def absorb(state):
        nonlocal count
        count += 1
        for v in (state.x, state.z, state.y):
            digest.update((v + 0.0).tobytes())
        if state.ybar is None:
            digest.update(b"-")
        else:
            digest.update(b"+" + (state.ybar + 0.0).tobytes())
        digest.update(struct.pack("<q4d", state.k, state.rho, state.lam,
                                  state.r_norm, state.d_norm))

    result = solve(problem, cfg, callback=absorb)
    assert count == result.iterations
    return count, digest.hexdigest()


@pytest.mark.parametrize("case", [(s, k) for s in SUITES for k in PENALTY_KINDS],
                         ids=lambda case: "-".join(case))
def test_suite_trajectory_is_pinned(case):
    suite, strategy = case
    instance = make_suite_instances(suite, 1, 0)[0]
    cfg = SolverConfig(tol=1e-6, max_iter=5000,
                       penalty=PenaltyConfig(kind=strategy),
                       lambda_schedule=LambdaSchedule.fixed(instance.lam))
    assert trajectory_digest(instance.problem, cfg) == SUITE_TRAJECTORIES[case]


@pytest.mark.parametrize("point", list(FRONTIER_TRAJECTORIES))
def test_adaptive_lambda_frontier_trajectory_is_pinned(point):
    mu, C = estimate_stats(generate_synthetic_returns(10, 120, 3))
    targets = np.linspace(float(mu.min()), float(mu.max()),
                          FRONTIER_POINTS)
    problem = build_problem(mu, C, float(targets[point]),
                            allow_out_of_range=True)
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert trajectory_digest(problem, cfg) == FRONTIER_TRAJECTORIES[point]
