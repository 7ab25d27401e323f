"""megstat benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload stat-calibrate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; megstat is imported from ``src/``.
Each run makes whole passes over the workload's seeded inputs until
``--seconds`` is spent (at least three).  Each operation's time is corrected
for host contention (see :class:`Gauge`), an input's time is its median over
the passes, and throughput and percentiles come from those per-input medians.
Outputs of the first pass are checked against independent oracles, and later
passes must reproduce them bit for bit.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import os

# one thread everywhere, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stat-calibrate", "kinetic-stationary", "kinetic-transient", "ssa-histogram")
MIN_PASSES = 3
SETUP_PROBES = 5


def import_megstat() -> float:
    """Import megstat from the checkout's ``src/``; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "megstat" / "__init__.py").is_file():
        sys.exit(f"error: no megstat source at {src}; run from a megstat checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import megstat.cli  # noqa: F401  (the package itself imports every other module)
    return time.perf_counter() - start


def set_up(name: str, seed: int):
    """Import, input generation and one warm-up operation: everything before the first timed call."""
    import_s = import_megstat()
    import numpy as np
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    start = time.perf_counter()
    inputs = workload.inputs(np.random.default_rng(seed))
    inputs_s = time.perf_counter() - start
    warm = workload.warmup_input()
    warm_out = workload.run(warm)
    return workload, inputs, warm, warm_out, {"import_s": import_s, "inputs_s": inputs_s}


class Gauge:
    """A fixed computation, independent of megstat, timed around every operation.

    The host's CPU is shared, and its speed swings: one fixed call ran 1.7x
    slower for tens of seconds at a time, and medians of raw wall-clock times
    over ten runs spread 20-40%.  The gauge slows down with the host, so each
    operation's time is scaled by quiet / current gauge time, where quiet is
    the gauge's 1st percentile over the run.  A corrected time is what the
    operation takes when the host runs as fast as it did at its quietest in
    the same run.
    """

    def __init__(self):
        import numpy as np

        self._exp = np.exp
        self._x = np.arange(64.0) / 64.0
        self.samples = []

    def read(self) -> int:
        start = time.perf_counter_ns()
        acc = 0.0
        for i in range(1, 400):
            acc += math.log(i) / i
        for _ in range(20):
            acc += float(self._exp(self._x).sum())
        ns = time.perf_counter_ns() - start
        self.samples.append(ns)
        return ns

    def quiet(self) -> float:
        return statistics.quantiles(self.samples, n=100)[0]


def probe_setup(args) -> list[float]:
    """Seconds from interpreter start to the first timed call, in fresh processes.

    Not corrected by the gauge: a gauge read after the imports tracked the
    contention during them too loosely and widened the spread.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


class Passes:
    """Timings, failures and check results over whole passes of the input list."""

    def __init__(self, workload, inputs, gauge):
        self.workload, self.inputs, self.gauge = workload, inputs, gauge
        self.samples = [[] for _ in inputs]    # (op ns, gauge ns before + after)
        self.prints = [None] * len(inputs)
        self.attempted = self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None) -> list[tuple[int, int]]:
        """One pass; returns the samples of the operations that succeeded."""
        wl, done = self.workload, []
        for i, inp in enumerate(self.inputs):
            self.attempted += 1
            before = self.gauge.read()
            start = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = wl.run(inp)
                else:
                    with tracer.region("op"):
                        out = wl.run(inp)
            except Exception:  # noqa: BLE001 - one failed operation must not end the run
                if not self.failed:
                    traceback.print_exc()
                self.failed += 1
                continue
            sample = (time.perf_counter_ns() - start, before + self.gauge.read())
            self.samples[i].append(sample)
            done.append(sample)
            if self.prints[i] is None:
                self.problems += [f"input {i}: {e}" for e in wl.check(inp, out)]
                self.prints[i] = wl.fingerprint(out)
            elif wl.fingerprint(out) != self.prints[i]:
                self.problems.append(f"input {i}: output differs from the first pass")
        return done

    def input_medians_ms(self, quiet: float) -> list[float]:
        """Each input's contention-corrected time, as its median over the passes."""
        return [statistics.median(corrected_ms(s, quiet)) for s in self.samples if s]


def corrected_ms(samples, quiet: float) -> list[float]:
    """Operation times scaled from the gauge around them to the gauge's quiet time."""
    return [op_ns * 2 * quiet / gauge_ns / 1e6 for op_ns, gauge_ns in samples]


def measure(passes: Passes, seconds: float, tracer=None) -> dict:
    """Passes until the next would overrun ``seconds``.  With a tracer, passes
    rotate untraced, span and counting; returns the samples of each kind."""
    kinds = {"plain": [], "spans": [], "counts": []}
    start = time.perf_counter()
    longest = 0.0
    n = 0
    while n < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        kind = "plain" if tracer is None else ("plain", "spans", "counts")[n % 3]
        if kind == "plain":
            kinds["plain"] += passes.run_pass()
        else:
            with tracer.installed(counting=kind == "counts"):
                kinds[kind] += passes.run_pass(tracer if kind == "spans" else None)
        longest = max(longest, time.perf_counter() - began)
        n += 1
    return kinds


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workload, inputs, warm, warm_out, setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    problems = [f"warm-up: {e}" for e in workload.check(warm, warm_out)]
    setup_samples = [] if args.trace else probe_setup(args)
    gauge = Gauge()
    passes = Passes(workload, inputs, gauge)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    kinds = measure(passes, args.seconds, tracer)
    problems += passes.problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    quiet = gauge.quiet()
    if args.trace:
        from tracer import layer_metrics
        traced = kinds["spans"]
        # layer self times are scaled by the span passes' median contention
        slowdown = statistics.median(g for _, g in traced) / (2 * quiet)
        figures = layer_metrics(tracer, len(traced), len(kinds["counts"]), 1 / slowdown)
        figures["setup.import_s"] = (setup["import_s"], "s")
        figures["setup.inputs_s"] = (setup["inputs_s"], "s")
        figures["trace.overhead_ms"] = (
            statistics.fmean(corrected_ms(traced, quiet))
            - statistics.fmean(corrected_ms(kinds["plain"], quiet)), "ms")
        figures["host.slowdown"] = (slowdown, "ratio")
        metrics = {k: metric(v, u) for k, (v, u) in figures.items()}
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        med = passes.input_medians_ms(quiet)
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "throughput_ops_per_s": metric(1e3 * len(med) / sum(med), "ops/s"),
            "latency_p50_ms": metric(statistics.median(med), "ms"),
            "latency_p90_ms": metric(statistics.quantiles(med, n=10)[8], "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": not problems, "attempted": passes.attempted,
              "failed": passes.failed, "metrics": metrics}
    line = json.dumps(result)
    (HERE / "out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
