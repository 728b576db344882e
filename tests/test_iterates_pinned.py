"""Pinned solver outcomes, compared bit for bit.

Each case holds what one solve ended with: iterations, termination, lambda
moves, and the exact final rho, lambda and objective, as recorded from the
solver before its per-iteration path was rewritten for speed.  A change to
the arithmetic of any iterate (operation order, a different norm routine, a
skipped or added step) moves at least one of these floats, so a change that
claims identical iterates must pass this file unchanged.

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
    ("random", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008381384177282794),
    ("random", "rb", 0): (27, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.0008380993585407285),
    ("random", "bb", 0): (9, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008380972291432604),
    ("random", "rbb", 0): (9, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008380972291433217),
    ("random", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008410427680765679),
    ("random", "rb", 1): (104, "converged", 0, 0.00390625, 0.0008333333333333334, 0.0008407443466195474),
    ("random", "bb", 1): (35, "converged", 0, 0.0006741607053976196, 0.0008333333333333334, 0.0008407438078700413),
    ("random", "rbb", 1): (33, "converged", 0, 9.371564718479639e-05, 0.0008333333333333334, 0.0008407431814060487),
    ("random", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008384409815435886),
    ("random", "rb", 2): (28, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.00083825837463867),
    ("random", "bb", 2): (19, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008382538635878032),
    ("random", "rbb", 2): (13, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008382538635922357),
    ("random", "fixed", 3): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008400584449171748),
    ("random", "rb", 3): (28, "converged", 0, 0.0001220703125, 0.0008333333333333334, 0.0008398307135513944),
    ("random", "bb", 3): (17, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008398247777880484),
    ("random", "rbb", 3): (17, "converged", 0, 1e-08, 0.0008333333333333334, 0.0008398247777890331),
    ("random", "fixed", 4): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008480036543583242),
    ("random", "rb", 4): (341, "converged", 0, 0.0625, 0.0008333333333333334, 0.0008475654046829137),
    ("random", "bb", 4): (114, "converged", 0, 0.008214734041995615, 0.0008333333333333334, 0.0008475618082550936),
    ("random", "rbb", 4): (85, "converged", 0, 0.00011875899205892752, 0.0008333333333333334, 0.0008475614842364198),
    ("illcond", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008431884084489187),
    ("illcond", "rb", 0): (2448, "converged", 0, 0.0625, 0.0008333333333333334, 0.0008413759209822487),
    ("illcond", "bb", 0): (106, "converged", 0, 0.13999825370815552, 0.0008333333333333334, 0.0008413738526319492),
    ("illcond", "rbb", 0): (2112, "converged", 0, 8.135088943110751e-06, 0.0008333333333333334, 0.0008413715288761516),
    ("illcond", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008345940561701601),
    ("illcond", "rb", 1): (1101, "converged", 0, 0.015625, 0.0008333333333333334, 0.000833718048920709),
    ("illcond", "bb", 1): (46, "converged", 0, 0.1723665613214157, 0.0008333333333333334, 0.0008337177878505946),
    ("illcond", "rbb", 1): (102, "converged", 0, 4.833129704730519e-06, 0.0008333333333333334, 0.0008337188333411026),
    ("illcond", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.000833431916039573),
    ("illcond", "rb", 2): (26, "converged", 0, 0.000244140625, 0.0008333333333333334, 0.000833410609075449),
    ("illcond", "bb", 2): (57, "converged", 0, 8.939734125663333e-05, 0.0008333333333333334, 0.0008333535016386208),
    ("illcond", "rbb", 2): (70, "converged", 0, 4.4205919845212296e-06, 0.0008333333333333334, 0.0008333536840168501),
    ("illcond", "fixed", 3): (5000, "max_iter", 0, 1.0, 0.0008333333333333334, 0.0008351866155184598),
    ("illcond", "rb", 3): (600, "converged", 0, 0.015625, 0.0008333333333333334, 0.0008348743001221633),
    ("illcond", "bb", 3): (94, "converged", 0, 0.006369800006401242, 0.0008333333333333334, 0.0008347693389929707),
    ("illcond", "rbb", 3): (138, "converged", 0, 6.0895313179796375e-06, 0.0008333333333333334, 0.0008347702511762434),
    ("illcond", "fixed", 4): (3239, "converged", 0, 1.0, 0.0008333333333333334, 0.0008631301737134636),
    ("illcond", "rb", 4): (160, "converged", 0, 0.125, 0.0008333333333333334, 0.0008631307360262873),
    ("illcond", "bb", 4): (138, "converged", 0, 0.4043184904035603, 0.0008333333333333334, 0.0008631307458239361),
    ("illcond", "rbb", 4): (172, "converged", 0, 0.00031012543190652765, 0.0008333333333333334, 0.0008631312233501922),
    ("shorts", "fixed", 0): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008344327552873582),
    ("shorts", "rb", 0): (511, "converged", 0, 0.03125, 0.008333333333333333, 0.008344097475534273),
    ("shorts", "bb", 0): (262, "converged", 0, 0.0021539214650314526, 0.008333333333333333, 0.00834409528574755),
    ("shorts", "rbb", 0): (349, "converged", 0, 8.12229763012982e-05, 0.008333333333333333, 0.008344109897069242),
    ("shorts", "fixed", 1): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008351295792264093),
    ("shorts", "rb", 1): (651, "converged", 0, 0.03125, 0.008333333333333333, 0.00835128750556954),
    ("shorts", "bb", 1): (164, "converged", 0, 0.03173639537082752, 0.008333333333333333, 0.008351286860530025),
    ("shorts", "rbb", 1): (354, "converged", 0, 0.00015034050573082476, 0.008333333333333333, 0.008351271702228621),
    ("shorts", "fixed", 2): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008406380909315002),
    ("shorts", "rb", 2): (487, "converged", 0, 0.015625, 0.008333333333333333, 0.00840629660956797),
    ("shorts", "bb", 2): (145, "converged", 0, 0.042501209174612614, 0.008333333333333333, 0.00840628972569419),
    ("shorts", "rbb", 2): (132, "converged", 0, 0.0009786791695923932, 0.008333333333333333, 0.008406281862097341),
    ("shorts", "fixed", 3): (2887, "converged", 0, 1.0, 0.008333333333333333, 0.008363443510459529),
    ("shorts", "rb", 3): (719, "converged", 0, 0.0625, 0.008333333333333333, 0.00836344805103472),
    ("shorts", "bb", 3): (170, "converged", 0, 0.008338711101139477, 0.008333333333333333, 0.008363452155663129),
    ("shorts", "rbb", 3): (475, "converged", 0, 0.0005563124153552092, 0.008333333333333333, 0.008363441783462476),
    ("shorts", "fixed", 4): (5000, "max_iter", 0, 1.0, 0.008333333333333333, 0.008345123898292577),
    ("shorts", "rb", 4): (1016, "converged", 0, 0.0625, 0.008333333333333333, 0.008345095892541182),
    ("shorts", "bb", 4): (301, "converged", 0, 0.01702704198009296, 0.008333333333333333, 0.008345108455330243),
    ("shorts", "rbb", 4): (5000, "max_iter", 0, 0.0002164334264709028, 0.008333333333333333, 0.00834509583355754),
}

# frontier point: same layout as SUITE_CASES
FRONTIER_CASES = {
    0: (605, "converged", 2, 0.0031566278821024453, 0.0033333333333333335, 0.0034248884848805134),
    3: (88, "converged", 0, 9.376564377321922e-05, 0.0008333333333333334, 0.0008428785221107147),
    4: (49, "converged", 0, 9.508498440573856e-05, 0.0008333333333333334, 0.0008412162243490269),
    12: (49, "converged", 0, 6.996794244373039e-05, 0.0008333333333333334, 0.0008415616155376298),
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
    stats = estimate_stats(generate_synthetic_returns(10, 120, 3))
    targets = np.linspace(float(stats.mu.min()), float(stats.mu.max()),
                          FRONTIER_POINTS)
    problem = build_problem(stats, float(targets[point]),
                            allow_out_of_range=True)
    cfg = SolverConfig(
        tol=1e-6, max_iter=5000, penalty=PenaltyConfig(kind="rbb"),
        lambda_schedule=LambdaSchedule.adaptive(initial_lambda(120, 10), sn=0))
    assert outcome(solve(problem, cfg)) == FRONTIER_CASES[point]
