"""Pinned solver trajectories: a sha256 over every iterate of a solve.

test_iterates_pinned.py pins where a solve ends; this file pins the whole
path to it.  Through ``callback``, each case hashes every IterateState in
order: x, z, y and ybar (when set) as the bytes of ``v + 0.0``, which
folds -0.0 into 0.0 so that only the sign of a zero may differ, then k,
rho, lam, r_norm and d_norm as IEEE doubles.  A change that claims
IEEE-equal iterates must pass this file unchanged.  The fixed cases were
recorded again when their x-steps began to take the inverse of the KKT
block, every case a certificate ends (frontier point 0's first two runs
included) when certificates came in, the fixed and rb
cases when those two began to start at sqrt(lambda_min * lambda_max) of C,
the nine cases a certificate ends sooner when each attempt began to
correct z's support, and illcond fixed, shorts rbb and frontier point 0
when a failed pattern began to be tried again on a larger budget and a
lone asset that misses the target to be left by its cheapest pair, and
illcond rb, shorts rbb and frontier point 0 when attempts began to be
priced by the support they solve, and the fixed cases again when their
x-steps went back to the LU, as every strategy's do.

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
    ("random", "fixed"): (33, "9bb5f61c46a0f53b5f545799bc76cc392ce59d998e12834c92a19d8bf01af116"),
    ("random", "rb"): (9, "44eae12fa5ead941d218e98dd51b59a2c1a92b0f46b6ab71a2b41a234079bf25"),
    ("random", "bb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("random", "rbb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("illcond", "fixed"): (65, "75e07ba1065b297a33b3a91450130e030e4b6f7acc1489b182cd0206364ada3e"),
    ("illcond", "rb"): (17, "ef0686d2096862bd92df9f4eabe87ec35690188786757e37060fe6758ed946ea"),
    ("illcond", "bb"): (17, "546ae7680c4756da49c3f3a193bd2d5c041256f429cd7bd22748ec8c706b8876"),
    ("illcond", "rbb"): (17, "742e6b310553fd732e82eb1367daaa3b2587033de9709768f949604cab99256e"),
    ("shorts", "fixed"): (65, "14a04e7c2359774525936c8e9105153ca7f951518aedcbe1345af61f1562c469"),
    ("shorts", "rb"): (33, "c3e2b8ccc03feb4d41aacf3402e5feb18b849feace9c488e8f554bcc0515fb45"),
    ("shorts", "bb"): (33, "34ba45be16ec858b8be8ffe28390532969e182b86d779ece31b006fd0dd65b15"),
    ("shorts", "rbb"): (33, "e177788c587bcccff5d395ee88aabdaccddbdc11afd8b8767c2105101fda10e3"),
}

# frontier point: (iterations, sha256 of the trajectory)
FRONTIER_TRAJECTORIES = {
    0: (83, "23b0096194822449165824423d210e683689829834e3e7b9cbed4e0db4d044b6"),
    3: (33, "b5d954b416177d1336f5c9d8ca82bef192e0ef59c104345fe32076699ca4714e"),
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
