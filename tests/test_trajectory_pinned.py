"""Pinned solver trajectories: a sha256 over every iterate of a solve.

test_iterates_pinned.py pins where a solve ends; this file pins the whole
path to it.  Through ``callback``, each case hashes every IterateState in
order: x, z, y and ybar (when set) as the bytes of ``v + 0.0``, which
folds -0.0 into 0.0 so that only the sign of a zero may differ, then k,
rho, lam, r_norm and d_norm as IEEE doubles.  A change that claims
IEEE-equal iterates must pass this file unchanged.

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
    ("random", "fixed"): (5000, "d8f146077b42d270593aee7e59402b0bc5ff7da0df25524c5e45448f7458440f"),
    ("random", "rb"): (27, "288bae3bfe878465113f36d9c46c0386ac2c31044e838fda126536a46ecb1522"),
    ("random", "bb"): (9, "907ee7ae5e47f5d0a9c89c4205f176b7994b95208acda6fc5c087f467b799b71"),
    ("random", "rbb"): (9, "a3ab1dd8898b0d79049404346ab429f8a120265c5dfc64e2c26057191263061a"),
    ("illcond", "fixed"): (5000, "ecaacb311063a1962030ff2705fd41a969c85018c64ea8437c95afdd1b0ecf78"),
    ("illcond", "rb"): (2448, "ad1559956f81428f7d4fddef8b268e4e49ec77c0252aef8d3797f57b1370b819"),
    ("illcond", "bb"): (106, "aaa38eff6697307f00bc00d92d550fc3ca6ff0a17859c6b40858fb2c0095d3af"),
    ("illcond", "rbb"): (2112, "adf2392a4eec4dd8715d46d9843527e04dcff4694dd56d0f4e2f37524e6cd573"),
    ("shorts", "fixed"): (5000, "58f02e9d79f15f81fc7499039a298c6b901e47ad4415a4d1ab120abc06ba4c9c"),
    ("shorts", "rb"): (511, "f89877e76461c984861129141cf5877f8ba9ba75db01fce55cb44293f215857f"),
    ("shorts", "bb"): (262, "7715f665ebf719ca92e9ac265bf88b21f5f7f2f7fb3cfaca3630d2ef2fb38d1a"),
    ("shorts", "rbb"): (349, "7e4aa85feea9a683e0fa3dbf5dca9b9febe683563e81a1cc7c6491ef68f13ea1"),
}

# frontier point: (iterations, sha256 of the trajectory)
FRONTIER_TRAJECTORIES = {
    0: (605, "cdb4aa3f761212dbc8f3fc86819fc1014552c731c628914ff5df68877f265c7a"),
    3: (88, "45eb3d9423645056b82c5bd656b6b54168232574c14530683d1ace616b57bdec"),
    4: (49, "b34a1480f12932995e8e4e10da6cdd321f6b79de611076588e74979917f2b1d0"),
    12: (49, "bc19f3bdc9884635c8a90ce4d303c8fd32257f1164d2fc4462184229526dc66b"),
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
    stats = estimate_stats(generate_synthetic_returns(10, 120, 3))
    targets = np.linspace(float(stats.mu.min()), float(stats.mu.max()),
                          FRONTIER_POINTS)
    problem = build_problem(stats, float(targets[point]),
                            allow_out_of_range=True)
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert trajectory_digest(problem, cfg) == FRONTIER_TRAJECTORIES[point]
