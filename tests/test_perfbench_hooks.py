"""The benchmark's tracer patches megstat functions by name; these names must stay.

``perfbench/tracer.py`` is read as source and run in a fresh module namespace,
so the benchmark directory gets no bytecode cache and is never written to.
"""

import types
from pathlib import Path

import pytest

from megstat import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
POISSON3 = ["--k1A", "0", "--km1", "0", "--k2", "1", "--km2AV", "3", "--V", "1"]


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("counting", [False, True], ids=["spans", "counts"])
def test_wrappers_install_run_and_restore(counting, tmp_path):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_megstat_wrappers(tracer, counting)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, attr
        out = tmp_path / "law.csv"
        argv = ["stationary", *POISSON3, "--format", "csv", "--output", str(out)]
        with tracer.region("op"):
            assert cli.main(argv) == 0
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    if counting:
        # the CLI's own name for moments and the law's size reach the counters
        assert tracer.calls["cli.main"] == 1
        assert tracer.calls["core.moments"] == 1
        rows = [line for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
        assert tracer.work["birthdeath.stationary_states"] == len(rows)
        assert tracer.work["cli.bytes_written"] == out.stat().st_size
    else:
        assert {"cli.main", "core.moments", "birthdeath.stationary"} <= set(tracer.self_ns)
