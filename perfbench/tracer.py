"""Span recorder that wraps megstat's public functions from outside the package.

Wrappers go in for one pass at a time, in one of two modes.  Span passes
record spans (id, parent, name, start_ns, end_ns), which stay in memory until
the run ends; a span's self time is its duration minus the time its child
spans cover.  Counting passes record no spans: they count calls, and the
states, events and bytes each call produced.  Functions called once per state
or channel are wrapped only in counting passes, so the cost of counting them
never lands in a span's self time.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start_ns, end_ns), in end order
        self.self_ns = Counter()
        self.calls = Counter()
        self.work = Counter()    # states, events and bytes, added by after-hooks
        self._stack = []         # open frames: [id, child_ns, name, parent, start_ns]
        self._next_id = 0
        self._patches = []

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0, name, parent, time.perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, child_ns, name, parent, start = frame
        self.self_ns[name] += end - start - child_ns
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def region(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    def counted(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self.work, args, result)
            return result
        return wrapper

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, counting: bool):
        install_megstat_wrappers(self, counting)
        try:
            yield
        finally:
            self.restore()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _add_states(work, args, dist):
    work["birthdeath.stationary_states"] += len(dist.support)


def _add_events(work, args, traj):
    work["ssa.events"] += len(traj.states)


def _add_bytes(work, args, rc):
    argv = list(args[0])
    if "--output" in argv:
        work["cli.bytes_written"] += os.path.getsize(argv[argv.index("--output") + 1])


def install_megstat_wrappers(tracer: Tracer, counting: bool) -> None:
    """Wrap each layer's public entry points in every namespace that calls them:
    with spans, or (``counting``) with call and work counters."""
    from megstat import birthdeath, cli, core, multiplicity, ssa

    def wrap(name, after=None):
        if counting:
            return lambda fn: tracer.counted(fn, name, after)
        return lambda fn: tracer.spanned(fn, name)

    tracer.patch(core.DiscreteDistribution, "from_log_weights", wrap("core.distribution"))
    tracer.patch(core.DiscreteDistribution, "from_probs", wrap("core.distribution"))
    for module in (core, multiplicity, cli):
        tracer.patch(module, "moments", wrap("core.moments"))
    tracer.patch(multiplicity, "calibrate_coupling", wrap("multiplicity.calibrate"))
    tracer.patch(multiplicity, "multiplicity_distribution", wrap("multiplicity.law"))
    tracer.patch(birthdeath, "stationary_distribution", wrap("birthdeath.stationary", _add_states))
    tracer.patch(birthdeath, "find_extrema", wrap("birthdeath.extrema"))
    tracer.patch(birthdeath, "transient_evolve", wrap("birthdeath.transient"))
    tracer.patch(ssa, "stationary_histogram", wrap("ssa.histogram"))
    tracer.patch(ssa, "simulate_trajectory", wrap("ssa.simulate", _add_events))
    tracer.patch(ssa, "occupancy_histogram", wrap("ssa.occupancy"))
    tracer.patch(cli, "main", wrap("cli.main", _add_bytes))
    if counting:
        tracer.patch(multiplicity, "log_stat_weight", wrap("multiplicity.weight"))
        tracer.patch(birthdeath, "step_ratio", wrap("birthdeath.step_ratio"))


def layer_metrics(tracer: Tracer, span_ops: int, count_ops: int, scale: float) -> dict:
    """Per-operation layer figures: times from the ``span_ops`` operations of
    span passes, counts from the ``count_ops`` operations of counting passes.

    Times are multiplied by ``scale``, the run's correction for host contention.
    """
    def ms(name):
        return tracer.self_ns[name] * scale / span_ops / 1e6

    def per_op(count):
        return count / count_ops

    events = per_op(tracer.work["ssa.events"])
    return {
        "core.distribution_ms": (ms("core.distribution"), "ms"),
        "core.distribution_calls": (per_op(tracer.calls["core.distribution"]), "count"),
        "core.moments_ms": (ms("core.moments"), "ms"),
        "multiplicity.calibrate_self_ms": (ms("multiplicity.calibrate"), "ms"),
        "multiplicity.law_ms": (ms("multiplicity.law"), "ms"),
        "multiplicity.law_calls": (per_op(tracer.calls["multiplicity.law"]), "count"),
        "multiplicity.weight_calls": (per_op(tracer.calls["multiplicity.weight"]), "count"),
        "birthdeath.stationary_ms": (ms("birthdeath.stationary"), "ms"),
        "birthdeath.stationary_states": (per_op(tracer.work["birthdeath.stationary_states"]), "count"),
        "birthdeath.step_ratio_calls": (per_op(tracer.calls["birthdeath.step_ratio"]), "count"),
        "birthdeath.extrema_self_ms": (ms("birthdeath.extrema"), "ms"),
        "birthdeath.transient_ms": (ms("birthdeath.transient"), "ms"),
        "ssa.simulate_ms": (ms("ssa.simulate"), "ms"),
        "ssa.events": (events, "count"),
        "ssa.ns_per_event": (ms("ssa.simulate") * 1e6 / events if events else 0.0, "ns"),
        "ssa.occupancy_ms": (ms("ssa.occupancy"), "ms"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "cli.bytes_written": (per_op(tracer.work["cli.bytes_written"]), "bytes"),
    }
