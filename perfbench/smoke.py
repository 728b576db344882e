"""Self-test of the benchmark: every workload once at reduced size.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs run.py with ``--size smoke`` on every workload, untraced and traced,
with the same output checks as a full run, and asserts that

- each run passes its checks and prints every metric BENCHMARK.json names,
  with the unit given there;
- the untraced and traced runs of a workload, on different seeds, give the
  same output digest;
- the traced layers account for the traced wall time, and each layer is
  called on exactly the workloads that should call it;
- a target the package no longer has is reported absent, not raised;
- run.py exits non-zero, without a result, where there is no package.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Layers that only some workloads call: span -> workloads that call it.
CALLED_BY = {
    "lambda_controller.adjust_calls": {"loop-n10"},
    "suites.make_s": {"loop-n10"},
}
ALWAYS_CALLED = ("kkt.factorize_calls", "kkt.xstep_calls", "admm_engine.solve_calls",
                 "admm_engine.zy_s", "admm_engine.residual_s", "penalty.update_calls",
                 "market_data.load_calls", "model.build_calls", "cli.self_s")
SELF_TIMES = ("kkt.factorize_s", "kkt.xstep_s", "admm_engine.self_s",
              "admm_engine.zy_s", "admm_engine.residual_s", "penalty.update_s",
              "lambda_controller.adjust_s", "model.build_s", "model.shorts_s",
              "market_data.load_s", "market_data.stats_s", "suites.make_s",
              "cli.self_s", "trace.unattributed_s")


def run(workload: str, seed: int, trace: int, cwd: str = ".") -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], spec: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}, printed
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check_layers(workload: str, layers: dict) -> None:
    accounted = sum(layers[name] for name in SELF_TIMES)
    assert abs(accounted - layers["trace.wall_s"]) <= 1e-6 * layers["trace.wall_s"], (
        workload, accounted, layers["trace.wall_s"])
    for name in ALWAYS_CALLED:
        assert layers[name] > 0, (workload, name)
    for name, callers in CALLED_BY.items():
        assert (layers[name] > 0) == (workload in callers), (workload, name)


def check_absent_target() -> None:
    """A renamed engine function must leave its metrics absent, not raise."""
    saved = tracer.TARGETS
    tracer.TARGETS = tuple(
        (module, "no_such_function" if path == "factorize" else path, span)
        for module, path, span in saved)
    try:
        traced = tracer.Tracer()
    finally:
        tracer.TARGETS = saved
    assert traced.absent == ["sparsefolio.admm_engine.no_such_function"], traced.absent
    absent = tracer.absent_metrics(traced)
    assert absent == ["kkt.factorize_calls", "kkt.factorize_ms",
                      "kkt.factorize_per_solve", "kkt.factorize_s"], absent


def check_bare_directory() -> None:
    bare = os.path.join(".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        code, lines = run("loop-n10", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not lines, (code, lines)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        code, plain = run(workload, 1, 0)
        assert code == 0, (workload, code, plain[-1:])
        check_result(plain, spec["end_to_end"])
        code, traced = run(workload, 2, 1)
        assert code == 0, (workload, code, traced[-1:])
        check_layers(workload, check_result(traced, spec["per_layer"]))
        digests = {json.loads(lines[-2])["report"]["digest"] for lines in (plain, traced)}
        assert len(digests) == 1, (workload, digests)
        print(f"ok {workload}")
    check_absent_target()
    check_bare_directory()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
