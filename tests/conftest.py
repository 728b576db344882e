"""Shared builders for the test suite."""
import os
import sys

# The *_pinned.py files compare bytes, and some BLAS results (the exhaustive
# oracle's among them) depend on the number of threads BLAS uses, so every
# test runs BLAS on one thread, as perfbench/worker.py does.  The variables
# are read when numpy loads its BLAS, which must not have happened yet.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

from sparsefolio.market_data import estimate_stats, generate_synthetic_returns  # noqa: E402
from sparsefolio.model import PortfolioProblem, build_problem  # noqa: E402


def pytest_report_header(config):
    """The numpy and scipy versions and the BLAS each was built with.

    The four *_pinned.py files compare bytes that depend on these builds;
    their pins were recorded with numpy 2.4.6 and scipy 1.17.1, BLAS on
    one thread.
    """
    lines = []
    for module in (np, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            build = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):  # a build without mode="dicts"
            build = "unknown"
        lines.append(f"{module.__name__} {module.__version__}, BLAS {build}")
    return lines


def factor_problem(n=6, m=60, seed=0, noise_scale=0.01, e=None):
    """Factor-model instance with e defaulting to the middle of the mean range."""
    returns = generate_synthetic_returns(n, m, seed=seed, noise_scale=noise_scale)
    mu, C = estimate_stats(returns)
    if e is None:
        e = 0.5 * (mu.min() + mu.max())
    return build_problem(mu, C, float(e))


def identity_problem(mu=(0.1, 0.2, 0.3), e=0.2):
    """C = I with hand-picked means; symmetric cases have known solutions."""
    mu = np.asarray(mu, dtype=float)
    return build_problem(mu, np.eye(len(mu)), e)


def two_asset_problem(e=0.15):
    """n=2 with both constraints active: the weights are fully determined."""
    return build_problem(np.array([0.1, 0.2]),
                         np.array([[0.04, 0.01], [0.01, 0.09]]), e)


def mean_diag_rho(problem):
    return float(np.mean(np.diag(problem.C)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
