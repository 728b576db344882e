"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload kkt-n200-n500 --seeds 1-10

Runs run.py once per seed, one run at a time, and prints for each metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, next to the bound that
BENCHMARK.json gives the metric.  ``--json PATH`` also writes the values.
The exit code is 1 when a run fails, the digests differ or a spread
exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--json", help="write the values of every run here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, ok = [], True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "report": json.loads(lines[-2])["report"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
    summary = {}
    for name in (runs[0]["metrics"] if runs else {}):
        values = [run["metrics"][name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        if spread > bound / 3:
            ok = False
        print(f"{name:32s} median={median:<12.6g} spread={spread:.4f} bound={bound}")
    digests = sorted({run["report"]["digest"] for run in runs})
    print(f"digests: {digests}")
    ok = ok and len(digests) == 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
