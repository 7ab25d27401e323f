"""Measure the sampling error that sets the ssa-histogram check's TV bound.

    python3 perfbench/ssa_bound.py

Draws the ssa-histogram inputs for each of the seeds 1000000-1000039 (150
rate sets, event counts and SSA seeds per seed), runs
``stationary_histogram`` on them and prints quantiles of TV * sqrt(E), the total-variation distance to the exact
product law scaled by the square root of the event count.  The benchmark's
bound is ``SSA_TV_SCALE / sqrt(E)`` in ``workloads.py``; set it well above the
largest value seen here.  The benchmark's runs use other seeds.
"""

from __future__ import annotations

import numpy as np

import run

SEEDS = range(1_000_000, 1_000_040)


def main() -> int:
    run.import_megstat()
    import workloads

    workload = workloads.SsaHistogram()
    scaled = []
    for seed in SEEDS:
        for inp in workload.inputs(np.random.default_rng(seed)):
            scaled.append(workload.scaled_error(inp, workload.run(inp)))
    q = np.quantile(scaled, [0.5, 0.9, 0.99, 0.999, 1.0])
    print(f"{len(scaled)} histograms; TV*sqrt(E) median {q[0]:.3f}  p90 {q[1]:.3f}  "
          f"p99 {q[2]:.3f}  p99.9 {q[3]:.3f}  max {q[4]:.3f}; "
          f"bound in use {workloads.SSA_TV_SCALE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
