"""Pinned solver outcomes, compared bit for bit.

Each case holds what one solve ended with: iterations, termination, lambda
moves, and the exact final rho, lambda and objective, as recorded from the
solver before its per-iteration path was rewritten for speed; the bb and
rbb cases, and the frontier cases, were recorded again when spectral
updates began to keep rho for proposals within a factor REFACTOR_RATIO of
it.  When fixed-rho x-steps began to take the inverse of the KKT block,
the objectives of 13 fixed cases were recorded again; no count or
termination moved.  When a KKT certificate began to end runs, every case
gained its certified flag and the certified cases were recorded again;
no uncertified case moved.  When fixed and rb began to start at
sqrt(lambda_min * lambda_max) of C, their 30 cases were recorded again;
no bb, rbb or frontier case moved.  When each certificate attempt began to
correct z's support by an active-set finish, the 34 suite cases and the
two frontier points it ends sooner were recorded again: every converged
case stayed converged, and illcond fixed 2, rb 2 and rb 3 and frontier
point 0 became certified.  When a failed certificate pattern began to be
tried again on a larger budget, and a one-asset support that misses the
target to be left by its cheapest feasible pair, illcond fixed 0, shorts
fixed 2 and rbb 0 and frontier point 0, which these end sooner, were
recorded again; their certified objectives did not move.  When attempts
began to be priced by the support they solve, so that a finish gets a
step per two x-steps of the run, the eleven suite cases and frontier
point 0 that this ends sooner were recorded again; no objective moved.
When the checkpoints became half-octaves, the 32 suite cases and
frontier points 0 and 12 that these end sooner were recorded again (15
of them with another rho_final, as they end before a rho change); no
objective moved.  A change to the
arithmetic of any iterate (operation order, a different norm routine, a
skipped or added step) moves at least one of these floats, so a change
that claims identical iterates must pass this file unchanged.

Suite cases use the ``bench`` command's configuration: suite seed 0, trials
0-4, default penalty settings, tol 1e-6 and max_iter 5000.  Frontier cases
are points 0, 3, 4 and 12 of the 20-point ``frontier --strategy rbb
--adaptive-lambda --sn 0`` sweep over the n=10, m=120 returns of generator
seed 3: point 0 converges after two lambda moves, each followed by a cold
re-solve, and points 3, 4 and 12 converge without a move.
"""

import numpy as np
import pytest

from sparsefolio.admm_engine import SolverConfig, solve
from sparsefolio.lambda_controller import LambdaSchedule, initial_lambda
from sparsefolio.market_data import estimate_stats, generate_synthetic_returns
from sparsefolio.model import build_problem
from sparsefolio.penalty import PenaltyConfig
from sparsefolio.suites import SUITES, make_suite_instances

# (suite, strategy, trial): (iterations, termination, lambda_adjustments,
#                            rho_final, lambda_final, objective, certified)
SUITE_CASES = {
    ("random", "fixed", 0): (24, "converged", 0, 0.0006470304439901399, 0.0008333333333333334, 0.0008380972291419092, True),
    ("random", "rb", 0): (9, "converged", 0, 0.0025881217759605598, 0.0008333333333333334, 0.0008380972291419092, True),
    ("random", "bb", 0): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008380972291419092, True),
    ("random", "rbb", 0): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008380972291419092, True),
    ("random", "fixed", 1): (17, "converged", 0, 0.0006818201723713386, 0.0008333333333333334, 0.0008407431794616419, True),
    ("random", "rb", 1): (9, "converged", 0, 0.0027272806894853546, 0.0008333333333333334, 0.0008407431794616419, True),
    ("random", "bb", 1): (9, "converged", 0, 0.002610758708847318, 0.0008333333333333334, 0.0008407431794616419, True),
    ("random", "rbb", 1): (9, "converged", 0, 0.0034540655005434622, 0.0008333333333333334, 0.0008407431794616419, True),
    ("random", "fixed", 2): (24, "converged", 0, 0.0005469143524445613, 0.0008333333333333334, 0.0008382538635873131, True),
    ("random", "rb", 2): (9, "converged", 0, 0.002187657409778245, 0.0008333333333333334, 0.0008382538635873131, True),
    ("random", "bb", 2): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008382538635873131, True),
    ("random", "rbb", 2): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008382538635873131, True),
    ("random", "fixed", 3): (24, "converged", 0, 0.0005590481734474078, 0.0008333333333333334, 0.0008398247777847571, True),
    ("random", "rb", 3): (9, "converged", 0, 0.0022361926937896313, 0.0008333333333333334, 0.0008398247777847571, True),
    ("random", "bb", 3): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008398247777847571, True),
    ("random", "rbb", 3): (5, "converged", 0, 1.0, 0.0008333333333333334, 0.0008398247777847571, True),
    ("random", "fixed", 4): (17, "converged", 0, 0.0007126261926373746, 0.0008333333333333334, 0.0008475613981918813, True),
    ("random", "rb", 4): (12, "converged", 0, 0.005701009541098997, 0.0008333333333333334, 0.0008475613981918813, True),
    ("random", "bb", 4): (12, "converged", 0, 0.0010126744791254022, 0.0008333333333333334, 0.0008475613981918813, True),
    ("random", "rbb", 4): (12, "converged", 0, 1.7819159587568025e-06, 0.0008333333333333334, 0.0008475613981918813, True),
    ("illcond", "fixed", 0): (46, "converged", 0, 9.999999999921576e-05, 0.0008333333333333334, 0.0008413696036479542, True),
    ("illcond", "rb", 0): (12, "converged", 0, 0.0031999999999749043, 0.0008333333333333334, 0.0008413696036479542, True),
    ("illcond", "bb", 0): (12, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008413696036479542, True),
    ("illcond", "rbb", 0): (12, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008413696036479542, True),
    ("illcond", "fixed", 1): (65, "converged", 0, 9.999999999849704e-05, 0.0008333333333333334, 0.0008337177011540998, True),
    ("illcond", "rb", 1): (17, "converged", 0, 0.0015999999999759527, 0.0008333333333333334, 0.0008337177011540998, True),
    ("illcond", "bb", 1): (12, "converged", 0, 1.3023493299841145e-06, 0.0008333333333333334, 0.0008337177011540998, True),
    ("illcond", "rbb", 1): (17, "converged", 0, 5.967004138318244e-07, 0.0008333333333333334, 0.0008337177011540998, True),
    ("illcond", "fixed", 2): (46, "converged", 0, 0.00010000000000001902, 0.0008333333333333334, 0.0008333528909119715, True),
    ("illcond", "rb", 2): (17, "converged", 0, 0.0016000000000003043, 0.0008333333333333334, 0.0008333528909119715, True),
    ("illcond", "bb", 2): (12, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008333528909119715, True),
    ("illcond", "rbb", 2): (12, "converged", 0, 0.05556780476832846, 0.0008333333333333334, 0.0008333528909119715, True),
    ("illcond", "fixed", 3): (46, "converged", 0, 0.00010000000000021289, 0.0008333333333333334, 0.0008347692095701775, True),
    ("illcond", "rb", 3): (24, "converged", 0, 0.0008000000000017031, 0.0008333333333333334, 0.0008347692095701775, True),
    ("illcond", "bb", 3): (17, "converged", 0, 1.7490923630072892e-06, 0.0008333333333333334, 0.0008347692095701775, True),
    ("illcond", "rbb", 3): (17, "converged", 0, 3.303996171867203e-07, 0.0008333333333333334, 0.0008347692095701775, True),
    ("illcond", "fixed", 4): (46, "converged", 0, 9.999999999914042e-05, 0.0008333333333333334, 0.0008631299084528797, True),
    ("illcond", "rb", 4): (24, "converged", 0, 0.051199999999559896, 0.0008333333333333334, 0.0008631299084528797, True),
    ("illcond", "bb", 4): (24, "converged", 0, 4.92440888650674e-07, 0.0008333333333333334, 0.0008631299084528797, True),
    ("illcond", "rbb", 4): (24, "converged", 0, 1.1877416627025229e-07, 0.0008333333333333334, 0.0008631299084528797, True),
    ("shorts", "fixed", 0): (65, "converged", 0, 0.0006470304439901399, 0.008333333333333333, 0.008344094904358463, True),
    ("shorts", "rb", 0): (24, "converged", 0, 0.041409948415368956, 0.008333333333333333, 0.008344094904358463, True),
    ("shorts", "bb", 0): (24, "converged", 0, 0.05068804381417293, 0.008333333333333333, 0.008344094904358463, True),
    ("shorts", "rbb", 0): (24, "converged", 0, 0.004328525827965202, 0.008333333333333333, 0.008344094904358463, True),
    ("shorts", "fixed", 1): (65, "converged", 0, 0.0006818201723713386, 0.008333333333333333, 0.008351271627684375, True),
    ("shorts", "rb", 1): (24, "converged", 0, 0.021818245515882836, 0.008333333333333333, 0.008351271627684375, True),
    ("shorts", "bb", 1): (24, "converged", 0, 1.0, 0.008333333333333333, 0.008351271627684375, True),
    ("shorts", "rbb", 1): (24, "converged", 0, 1.0, 0.008333333333333333, 0.008351271627684375, True),
    ("shorts", "fixed", 2): (65, "converged", 0, 0.0005469143524445613, 0.008333333333333333, 0.008406277626561286, True),
    ("shorts", "rb", 2): (17, "converged", 0, 0.1400100742258077, 0.008333333333333333, 0.008406277626561286, True),
    ("shorts", "bb", 2): (24, "converged", 0, 1.0, 0.008333333333333333, 0.008406277626561286, True),
    ("shorts", "rbb", 2): (24, "converged", 0, 1.0, 0.008333333333333333, 0.008406277626561286, True),
    ("shorts", "fixed", 3): (46, "converged", 0, 0.0005590481734474078, 0.008333333333333333, 0.008363441555992505, True),
    ("shorts", "rb", 3): (24, "converged", 0, 0.0715581662012682, 0.008333333333333333, 0.008363441555992505, True),
    ("shorts", "bb", 3): (17, "converged", 0, 0.003157631181305949, 0.008333333333333333, 0.008363441555992505, True),
    ("shorts", "rbb", 3): (17, "converged", 0, 0.002813727382208811, 0.008333333333333333, 0.008363441555992505, True),
    ("shorts", "fixed", 4): (65, "converged", 0, 0.0007126261926373746, 0.008333333333333333, 0.008345095791716476, True),
    ("shorts", "rb", 4): (12, "converged", 0, 0.02280403816439599, 0.008333333333333333, 0.008345095791716476, True),
    ("shorts", "bb", 4): (17, "converged", 0, 1.0, 0.008333333333333333, 0.008345095791716476, True),
    ("shorts", "rbb", 4): (12, "converged", 0, 0.0904370439493369, 0.008333333333333333, 0.008345095791716476, True),
}

# frontier point: same layout as SUITE_CASES
FRONTIER_CASES = {
    0: (65, "converged", 2, 0.0001271455182613717, 0.0033333333333333335, 0.0034248806605636337, True),
    3: (33, "converged", 0, 0.0007689355875545938, 0.0008333333333333334, 0.0008428777161561389, True),
    4: (9, "converged", 0, 0.004938714688543736, 0.0008333333333333334, 0.0008412162157772466, True),
    12: (12, "converged", 0, 0.00419987007492491, 0.0008333333333333334, 0.0008415608348689496, True),
}
FRONTIER_POINTS = 20


def outcome(result):
    return (result.iterations, result.termination, result.lambda_adjustments,
            result.rho_final, result.lambda_final, result.objective,
            result.certified)


@pytest.fixture(scope="module")
def suite_instances():
    return {suite: make_suite_instances(suite, 5, 0) for suite in SUITES}


@pytest.mark.parametrize("case", list(SUITE_CASES),
                         ids=lambda case: "-".join(map(str, case)))
def test_suite_solve_is_pinned(case, suite_instances):
    suite, strategy, trial = case
    instance = suite_instances[suite][trial]
    cfg = SolverConfig(tol=1e-6, max_iter=5000,
                       penalty=PenaltyConfig(kind=strategy),
                       lambda_schedule=LambdaSchedule.fixed(instance.lam))
    assert outcome(solve(instance.problem, cfg)) == SUITE_CASES[case]


@pytest.mark.parametrize("point", list(FRONTIER_CASES))
def test_adaptive_lambda_frontier_point_is_pinned(point):
    mu, C = estimate_stats(generate_synthetic_returns(10, 120, 3))
    targets = np.linspace(float(mu.min()), float(mu.max()),
                          FRONTIER_POINTS)
    problem = build_problem(mu, C, float(targets[point]))
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert outcome(solve(problem, cfg)) == FRONTIER_CASES[point]
