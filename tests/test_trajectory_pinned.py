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
priced by the support they solve, the fixed cases again when their
x-steps went back to the LU, as every strategy's do, and the eight suite
cases and frontier points 0 and 12 that half-octave checkpoints end
sooner.

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
    ("random", "fixed"): (24, "3b1d4893020838e4c534090b5043d21ec25e2a11abaaf352c9e908274e601388"),
    ("random", "rb"): (9, "44eae12fa5ead941d218e98dd51b59a2c1a92b0f46b6ab71a2b41a234079bf25"),
    ("random", "bb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("random", "rbb"): (5, "c565f999004311a51d95326052f7d9c7346070ef0d204701683106c3938c6d55"),
    ("illcond", "fixed"): (46, "4799e74cce34fab55b7bcc6769f4acb3da4ccba7c30753330bb2534a41a42427"),
    ("illcond", "rb"): (12, "b4a49ad1c676ef35472cefc169933ebec5f158878d4946df834eb57145b1ab8e"),
    ("illcond", "bb"): (12, "b2a13b18f3e3b4683809681480000032e4b14be0243fe80dca05df18f30adc0b"),
    ("illcond", "rbb"): (12, "eb3db12f558a867ea844200ad28fcc6392e918f30a8dfcc769539166c87291f5"),
    ("shorts", "fixed"): (65, "14a04e7c2359774525936c8e9105153ca7f951518aedcbe1345af61f1562c469"),
    ("shorts", "rb"): (24, "bee3419e63215d6a33aef0f293c3aee988abd3053426625bc16a342a88098812"),
    ("shorts", "bb"): (24, "e31f70702d5fac976c4657833f1144d0d7314669ac437645bb4f83c3ea8d22ce"),
    ("shorts", "rbb"): (24, "626f4339cb8efe23a320aecec1c0b286e024716126e296bb8ef7ac42b5b2c241"),
}

# frontier point: (iterations, sha256 of the trajectory)
FRONTIER_TRAJECTORIES = {
    0: (65, "7ac7c8f39f29ee2b44bdba4f216c065829a780bdedaa334a2edf427038b4dd07"),
    3: (33, "b5d954b416177d1336f5c9d8ca82bef192e0ef59c104345fe32076699ca4714e"),
    4: (9, "740562db24da297fac01ba6213c974b4e22c9ee2d0ba2f666e4650ea3c2f7fb4"),
    12: (12, "606a4e3f092feed60b2678430b0265ca1c152a29004766f6a21e3c9a69ab811c"),
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
