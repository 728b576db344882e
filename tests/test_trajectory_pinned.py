"""Pinned solver trajectories: a sha256 over every iterate of a solve.

test_iterates_pinned.py pins where a solve ends; this file pins the whole
path to it.  Through ``callback``, each case hashes every IterateState in
order: x, z, y and ybar (when set) as the bytes of ``v + 0.0``, which
folds -0.0 into 0.0 so that only the sign of a zero may differ, then k,
rho, lam, r_norm and d_norm as IEEE doubles.  A change that claims
IEEE-equal iterates must pass this file unchanged.  The fixed cases, whose
x-steps take the inverse of the KKT block, were recorded again when that
inverse came in, and every case a certificate ends (frontier point 0's
first two runs included) when certificates came in.

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
    ("random", "fixed"): (5, "235c4741aca00909aa16eb668ca3761329917b4ddcec323eea5aea7451326a76"),
    ("random", "rb"): (5, "b7479c95e97bc3a66d96b0b9186821c46764312c886e47dd19388fcec4d9ddee"),
    ("random", "bb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("random", "rbb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("illcond", "fixed"): (5000, "fd48f727d7f446e1916595a7e9dcbf2f2b86f651a71d14eab100a3fbd03203b2"),
    ("illcond", "rb"): (513, "05613a868e280bf82e91d6205cddc62ff87dde3b3382ffa335c395391dff9817"),
    ("illcond", "bb"): (33, "6b7533eaba42bd80153ac983ab49374f62c90f21b1e5a120cc4616e0e8298156"),
    ("illcond", "rbb"): (129, "3e8ffebe50741c234edc846ba0842661b1790b6ab6cbc885932021cb63bdce3a"),
    ("shorts", "fixed"): (129, "cee9e7ef5eedb65d264fa83d5ae3019849bc55db644769e3590c964bf5794f14"),
    ("shorts", "rb"): (511, "1092b764f1cd38a0e6c28f117672ec1e9b5b57c397da2a2ccc0740888a979647"),
    ("shorts", "bb"): (129, "4c72f662ef0bc2b5b76e34fc94bee3fc9075d8e251db7a3b17a564e35df9ca35"),
    ("shorts", "rbb"): (129, "de0e9d59672e4259855c747c2fda48c25e2f927c6a96b606a97b1ba5f81b7f58"),
}

# frontier point: (iterations, sha256 of the trajectory)
FRONTIER_TRAJECTORIES = {
    0: (1187, "da34077dceb094c8dafcc98884c738c52e61a3322dedc929cf0f17ffc7265827"),
    3: (65, "f5b08af0196cac4d0023d8cf7d53235ea51a2ad53498390df37df2acacc24d77"),
    4: (9, "740562db24da297fac01ba6213c974b4e22c9ee2d0ba2f666e4650ea3c2f7fb4"),
    12: (17, "f4deb71af33029c2fc413e615bd7b95039d1e656d63447641d3904b8829474f8"),
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
    problem = build_problem(mu, C, float(targets[point]))
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert trajectory_digest(problem, cfg) == FRONTIER_TRAJECTORIES[point]
