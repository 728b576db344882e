"""Pinned solver outcomes, compared bit for bit.

Each case holds what one solve ended with: iterations, termination, lambda
moves, and the exact final rho, lambda and objective, as recorded from the
solver before its per-iteration path was rewritten for speed; the bb and
rbb cases, and the frontier cases, were recorded again when spectral
updates began to keep rho for proposals within a factor REFACTOR_RATIO of
it.  When fixed-rho x-steps began to take the inverse of the KKT block,
the objectives of 13 fixed cases were recorded again; no count or
termination moved.  A change to the arithmetic of any iterate (operation
order, a different norm routine, a skipped or added step) moves at least
one of these floats, so a change that claims identical iterates must pass
this file unchanged.

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
#                            rho_final, lambda_final, objective)
SUITE_CASES = {
    ("random", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008381384177282795),
    ("random", "rb", 0): (27, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.0008380993585407285),
    ("random", "bb", 0): (9, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008380972291432604),
    ("random", "rbb", 0): (9, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008380972291433217),
    ("random", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008410427680765663),
    ("random", "rb", 1): (104, "converged", 0, 0.00390625, 0.0008333333333333334, 0.0008407443466195474),
    ("random", "bb", 1): (31, "converged", 0, 8.890227051678853e-05, 0.0008333333333333334, 0.0008407434554302379),
    ("random", "rbb", 1): (29, "converged", 0, 8.882946041454191e-05, 0.0008333333333333334, 0.000840743631287616),
    ("random", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008384409815435893),
    ("random", "rb", 2): (28, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.00083825837463867),
    ("random", "bb", 2): (17, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008382538635900322),
    ("random", "rbb", 2): (15, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008382538635919829),
    ("random", "fixed", 3): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008400584449171743),
    ("random", "rb", 3): (28, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.0008398307135513944),
    ("random", "bb", 3): (13, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008398247777909978),
    ("random", "rbb", 3): (11, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008398247777915786),
    ("random", "fixed", 4): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008480036543583254),
    ("random", "rb", 4): (341, "converged", 0, 0.0625, 0.0008333333333333334, 0.0008475654046829137),
    ("random", "bb", 4): (86, "converged", 0, 0.0010126744791254022, 0.0008333333333333334, 0.0008475614325649525),
    ("random", "rbb", 4): (240, "converged", 0, 0.00010921461012628551, 0.0008333333333333334, 0.0008475627593089192),
    ("illcond", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008431884084489101),
    ("illcond", "rb", 0): (2448, "converged", 0, 0.0625, 0.0008333333333333334, 0.0008413759209822487),
    ("illcond", "bb", 0): (321, "converged", 0, 0.003022403616390857, 0.0008333333333333334, 0.0008413697038486962),
    ("illcond", "rbb", 0): (215, "converged", 0, 0.0013629913647216572, 0.0008333333333333334, 0.000841371439608023),
    ("illcond", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008345940561701587),
    ("illcond", "rb", 1): (1101, "converged", 0, 0.015625, 0.0008333333333333334, 0.000833718048920709),
    ("illcond", "bb", 1): (54, "converged", 0, 0.012078617607385628, 0.0008333333333333334, 0.0008337181924316851),
    ("illcond", "rbb", 1): (93, "converged", 0, 0.00011220184079275687, 0.0008333333333333334, 0.0008337189114612764),
    ("illcond", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008334319160395723),
    ("illcond", "rb", 2): (26, "converged", 0, 0.000244140625, 0.0008333333333333334, 0.000833410609075449),
    ("illcond", "bb", 2): (65, "converged", 0, 4.57749765264418e-06, 0.0008333333333333334, 0.0008333528910747174),
    ("illcond", "rbb", 2): (73, "converged", 0, 4.456781748325513e-06, 0.0008333333333333334, 0.0008333535517616278),
    ("illcond", "fixed", 3): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008351866155184619),
    ("illcond", "rb", 3): (600, "converged", 0, 0.015625, 0.0008333333333333334, 0.0008348743001221633),
    ("illcond", "bb", 3): (148, "converged", 0, 0.0008306544588587743, 0.0008333333333333334, 0.0008347700982608106),
    ("illcond", "rbb", 3): (143, "converged", 0, 7.916482437984711e-06, 0.0008333333333333334, 0.0008347702745024752),
    ("illcond", "fixed", 4): (3239, "converged", 0, 1.0, 0.0008333333333333334, 0.0008631301737134631),
    ("illcond", "rb", 4): (160, "converged", 0, 0.125, 0.0008333333333333334, 0.0008631307360262873),
    ("illcond", "bb", 4): (290, "converged", 0, 0.005742566896047428, 0.0008333333333333334, 0.0008631300811880377),
    ("illcond", "rbb", 4): (170, "converged", 0, 0.00041788502900300844, 0.0008333333333333334, 0.0008631309954922849),
    ("shorts", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008344327552873579),
    ("shorts", "rb", 0): (511, "converged", 0, 0.03125, 0.008333333333333333, 0.008344097475534273),
    ("shorts", "bb", 0): (176, "converged", 0, 0.0017646355399324226, 0.008333333333333333, 0.008344103022144174),
    ("shorts", "rbb", 0): (317, "converged", 0, 9.39975909465963e-05, 0.008333333333333333, 0.008344109755595299),
    ("shorts", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008351295792264091),
    ("shorts", "rb", 1): (651, "converged", 0, 0.03125, 0.008333333333333333, 0.00835128750556954),
    ("shorts", "bb", 1): (125, "converged", 0, 0.06327732754579747, 0.008333333333333333, 0.008351271701750188),
    ("shorts", "rbb", 1): (285, "converged", 0, 0.00014560095861261487, 0.008333333333333333, 0.008351289165674758),
    ("shorts", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008406380909314998),
    ("shorts", "rb", 2): (487, "converged", 0, 0.015625, 0.008333333333333333, 0.00840629660956797),
    ("shorts", "bb", 2): (158, "converged", 0, 0.05917137606066488, 0.008333333333333333, 0.008406277946497525),
    ("shorts", "rbb", 2): (169, "converged", 0, 0.0005232843353582652, 0.008333333333333333, 0.008406278002858545),
    ("shorts", "fixed", 3): (2887, "converged", 0, 1.0, 0.008333333333333333, 0.008363443510459529),
    ("shorts", "rb", 3): (719, "converged", 0, 0.0625, 0.008333333333333333, 0.00836344805103472),
    ("shorts", "bb", 3): (163, "converged", 0, 0.002351735420571563, 0.008333333333333333, 0.00836345679450817),
    ("shorts", "rbb", 3): (431, "converged", 0, 0.0004948537312970098, 0.008333333333333333, 0.008363464746388057),
    ("shorts", "fixed", 4): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008345123898292577),
    ("shorts", "rb", 4): (1016, "converged", 0, 0.0625, 0.008333333333333333, 0.008345095892541182),
    ("shorts", "bb", 4): (295, "converged", 0, 0.005670965788994165, 0.008333333333333333, 0.00834510944981089),
    ("shorts", "rbb", 4): (2994, "converged", 0, 0.0003872711590769962, 0.008333333333333333, 0.0083450958293202),
}

# frontier point: same layout as SUITE_CASES
FRONTIER_CASES = {
    0: (1187, "converged", 2, 0.0009971221445864947, 0.0033333333333333335, 0.003424886995214798),
    3: (89, "converged", 0, 0.0001047102171315411, 0.0008333333333333334, 0.0008428785166298715),
    4: (60, "converged", 0, 0.00010002630658909575, 0.0008333333333333334, 0.0008412167273483833),
    12: (47, "converged", 0, 7.2503133436907e-05, 0.0008333333333333334, 0.0008415617803146193),
}
FRONTIER_POINTS = 20


def outcome(result):
    return (result.iterations, result.termination, result.lambda_adjustments,
            result.rho_final, result.lambda_final, result.objective)


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
    problem = build_problem(mu, C, float(targets[point]),
                            allow_out_of_range=True)
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert outcome(solve(problem, cfg)) == FRONTIER_CASES[point]
