"""The benchmark's layer tracer still finds every function it wraps.

perfbench/tracer.py wraps package functions by the names their callers look
them up by, and reports a renamed or reshaped target as absent instead of
failing.  An absent target would silently drop its layer metrics from every
traced benchmark run, so this test traces one small adaptive-lambda solve
and requires that nothing is absent and that the lambda guard was seen.
"""

import importlib.util
from pathlib import Path

import sparsefolio.cli as cli
from sparsefolio.market_data import estimate_stats, load_returns_csv

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_and_is_called(tmp_path):
    tracing = load_tracer_module()
    data = tmp_path / "returns.csv"
    assert cli.main(["gen", "--assets", "10", "--periods", "200", "--seed", "4",
                     "-o", str(data)]) == cli.EXIT_OK
    # at the largest asset mean the first run ends with shorts, so lambda
    # moves, and the solve still converges
    top = float(estimate_stats(load_returns_csv(str(data)))[0].max())
    out = tmp_path / "result.json"

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["solve", "--input", str(data), "--adaptive-lambda",
                         "--sn", "0", "--target-return", repr(top), "-o", str(out)])
    finally:
        tracer.uninstall()

    assert tracer.absent == []
    assert tracer.absent_counters == set()
    assert tracing.absent_metrics(tracer) == []
    assert code == cli.EXIT_OK
    assert tracer.totals["lambda_controller.adjust"][0] > 0
    assert tracer.totals["model.shorts"][0] > 0
    assert tracer.counts["lambda_controller.moves"] > 0
