"""Run the benchmark in two sets of ten seeded runs and compare the sets.

    python3 perfbench/spread.py [--workload NAME ...]

Set A uses seeds 1-10 and set B seeds 11-20.  Every run is a separate
``run.py`` process, as long as ``run_seconds`` in ``BENCHMARK.json``.  For
each workload and end-to-end metric it prints both sets' medians and
quartile spreads (Q3 - Q1) / median, from ``statistics.quantiles(values,
n=4)``, the relative difference of the two medians, and the metric's bound.
It also prints the failed share of operations and the longest run's wall
time.  ``--workload`` reruns only the named workloads.  Raw results go to
``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SETS = {"A": range(1, 11), "B": range(11, 21)}


def run_set(name: str, seeds, seconds: int) -> tuple[list[dict], float]:
    """One run per seed; returns the results and the longest run's wall seconds."""
    results, longest = [], 0.0
    for seed in seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        longest = max(longest, time.monotonic() - start)
        if proc.returncode != 0:
            sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results, longest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for name in args.workload:
        sets = {}
        for label, seeds in SETS.items():
            results, longest = run_set(name, seeds, bench["run_seconds"])
            sets[label] = results
            print(f"{name} set {label} (seeds {seeds.start}-{seeds.stop - 1}): "
                  f"correct={all(r['correct'] for r in results)}, failed share="
                  f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
                  f"longest run {longest:.1f} s")
        report[name] = sets
        for key, bound in bounds.items():
            row = []
            for results in sets.values():
                q1, med, q3 = statistics.quantiles([r["metrics"][key]["value"] for r in results], n=4)
                row.append((med, (q3 - q1) / med))
            (med_a, spread_a), (med_b, spread_b) = row
            print(f"  {key:22s} A {med_a:10.5g} spread {spread_a:6.2%}   "
                  f"B {med_b:10.5g} spread {spread_b:6.2%}   "
                  f"|B-A|/A {abs(med_b - med_a) / med_a:6.2%}   bound {bound:.0%}")
        sys.stdout.flush()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
