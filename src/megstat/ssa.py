"""Exact stochastic simulation of the birth-death chain, walked as its jump chain.

From state n the chain jumps up with probability b(n)/(b(n)+d(n)) and down
otherwise, after an exponential wait at the total rate b(n)+d(n).  Both
routes walk this embedded jump chain with one uniform per jump, in blocks of
``_BLOCK`` events whose uniforms are drawn at once, on a window of tabulated
rates that is rebuilt wider whenever a block could leave it.  ``simulate_trajectory`` draws a second uniform
per event for its wait.  ``stationary_histogram`` draws no waits: it weights
each visit to n by the expected dwell time 1/total(n), the Rao-Blackwellized
jump-chain estimator (Gillespie 1977), and counts its burn-in in events.

Randomness comes from numpy's PCG64 generator, which has a stable
cross-platform output stream and draws a block's doubles in the same order as
one long draw, so outputs do not depend on the block size; the generator name
is recorded so output artifacts are fully reproducible from (params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .birthdeath import birth_rate, death_rate
from .core import DiscreteDistribution, KineticParams
from .errors import DomainError, FrozenChain

RNG_NAME = "numpy.random.PCG64"

_BLOCK = 4096
# stationary_histogram's cap on n_events, which bounds a call to a minute or two
# of walking (~86 ns per event on a shared 2-vCPU host)
_MAX_EVENTS = 10**9


@dataclass(frozen=True)
class Trajectory:
    """One realization of the jump process.

    ``states[i]`` is the population after the event at ``event_times[i]``.
    ``end_time`` is when simulation stopped (last event, the max_time cap,
    or the moment the chain froze at zero total propensity).
    """

    event_times: np.ndarray
    states: np.ndarray
    initial_state: int
    seed: int
    end_time: float
    frozen: bool
    rng_name: str = RNG_NAME


def _generator(seed) -> np.random.Generator:
    """The PCG64 stream of ``seed``, which must be a non-negative integer."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


class _Table(NamedTuple):
    """Rates on the states lo, lo+1, ...: totals (array) and up-probabilities (list)."""

    lo: int
    total: np.ndarray
    up: list


def _cover(kp: KineticParams, table: _Table, n: int, size: int) -> _Table:
    """A table that holds every state a walk of ``size`` events from n can reach.

    ``table`` itself when it already does; otherwise a new one reaching at
    least max(len(table.up), 2*size) states either side of n (and never below
    0), so a drifting chain rebuilds it a logarithmic number of times.  A
    frozen state (total rate 0) gets up-probability 1, and so does state 0
    (d(0) = 0): a walk never goes below 0, and the walkers cut their path at
    the first frozen state.
    """
    if table.lo <= max(n - size, 0) and n + size < table.lo + len(table.up):
        return table
    half = max(len(table.up), 2 * size)
    lo = max(n - half, 0)
    states = np.arange(lo, n + half + 1, dtype=float)
    with np.errstate(over="ignore"):   # an overflow raises the typed error below
        birth = birth_rate(states, kp)
        total = birth + death_rate(states, kp)
    if not np.isfinite(total).all():
        raise DomainError("the rates overflow a double within the simulated states")
    up = np.ones(len(total))
    np.divide(birth, total, out=up, where=total > 0)
    return _Table(lo, total, up.tolist())


_EMPTY = _Table(0, np.empty(0), [])


def _walk(table: _Table, n: int, uniforms: list) -> tuple:
    """Walk the jump chain from n, one uniform per event.

    Returns the state held before each event (an array) and the state after
    the last.
    """
    up = table.up
    n -= table.lo
    path = []
    visit = path.append
    for x in uniforms:
        visit(n)
        n = n + 1 if x < up[n] else n - 1
    return np.fromiter(path, dtype=np.intp, count=len(path)) + table.lo, n + table.lo


def simulate_trajectory(
    kp: KineticParams,
    n_init: int,
    seed: int,
    max_events: int | None = None,
    max_time: float | None = None,
) -> Trajectory:
    """Exact trajectory, deterministic given the seed.

    Event i takes the uniforms 2i (the jump) and 2i+1 (the wait) of the
    stream, so the output does not depend on the block size.  The wait out of
    state n is -log1p(-u)/total(n).
    """
    if n_init < 0:
        raise DomainError("n_init must be non-negative")
    if max_time is not None and not max_time >= 0:
        raise DomainError("max_time must be non-negative")
    if max_events is None and (max_time is None or max_time == math.inf):
        raise DomainError("need a stop condition: max_events or a finite max_time")
    cap_events = math.inf if max_events is None else int(max_events)
    cap_time = math.inf if max_time is None else float(max_time)

    rng = _generator(seed)
    table = _EMPTY
    times = [np.empty(0)]
    states = [np.empty(0, dtype=np.int64)]
    n = n_init
    t = 0.0
    frozen = False
    done = 0
    while done < cap_events:
        size = int(min(_BLOCK, cap_events - done))
        table = _cover(kp, table, n, size)
        u = rng.random((size, 2))
        held, n_end = _walk(table, n, u[:, 0].tolist())
        rate = table.total[held - table.lo]
        # the block's events end at the first frozen state or past max_time
        zero = np.flatnonzero(rate == 0.0)
        keep = zero[0] if len(zero) else size
        clock = np.cumsum(np.concatenate(([t], -np.log1p(-u[:keep, 1]) / rate[:keep])))[1:]
        late = np.flatnonzero(clock > cap_time)
        if len(late):
            keep = late[0]
        times.append(clock[:keep])
        states.append(np.append(held[1:], n_end)[:keep])
        if len(late):
            t = cap_time
            break
        if keep:
            t = clock[-1]
        if keep < size:
            frozen = True
            break
        n = n_end
        done += size
    return Trajectory(
        event_times=np.concatenate(times),
        states=np.concatenate(states).astype(np.int64),
        initial_state=n_init,
        seed=seed,
        end_time=float(t),
        frozen=frozen,
    )


def occupancy_histogram(traj: Trajectory, t_start: float = 0.0) -> DiscreteDistribution:
    """Time-weighted state occupancy over [t_start, end_time].

    Event-weighted counting is biased by residence times, so each state is
    weighted by how long the chain sat in it.
    """
    edges = np.concatenate([[0.0], traj.event_times, [traj.end_time]])
    path = np.concatenate([[traj.initial_state], traj.states])
    left = np.clip(edges[:-1], t_start, None)
    right = np.clip(edges[1:], t_start, None)
    dwell = right - left
    span = traj.end_time - t_start
    if span <= 0:
        raise DomainError("t_start is past the end of the trajectory")
    weights = np.bincount(path, weights=dwell)
    support = np.nonzero(weights)[0]
    return DiscreteDistribution.from_probs(support, weights[support] / span)


def stationary_histogram(
    kp: KineticParams,
    seed: int,
    n_events: int,
    burn_in_fraction: float = 0.1,
) -> DiscreteDistribution:
    """Empirical stationary law from one long jump-chain walk started at 0.

    ``n_events`` must lie in [10^4, 10^9]; the cap bounds a call's work.
    The first floor(burn_in_fraction * n_events) events are burn-in.  Each
    later event counts a visit to the state it leaves, and a state's count is
    weighted by its expected dwell time 1/total(n): no waiting times are
    drawn, one uniform per event drives the walk, and the estimate has lower
    variance than the time-weighted occupancy of one trajectory.
    """
    if not 10_000 <= n_events <= _MAX_EVENTS:
        raise DomainError(f"n_events must lie in [10^4, 10^9], got {n_events!r}")
    if not 0.0 <= burn_in_fraction <= 0.5:
        raise DomainError("burn_in_fraction must lie in [0, 0.5]")
    if birth_rate(0, kp) == 0:
        raise FrozenChain("the chain is frozen at the empty state: its birth rate there is 0")
    n_events = int(n_events)
    cut = int(burn_in_fraction * n_events)

    rng = _generator(seed)
    table = _EMPTY
    counts = np.zeros(0, dtype=np.int64)
    n = 0
    for done in range(0, n_events, _BLOCK):
        size = min(_BLOCK, n_events - done)
        table = _cover(kp, table, n, size)
        held, n = _walk(table, n, rng.random(size).tolist())
        if done + size > cut:
            visits = np.bincount(held[max(cut - done, 0):], minlength=len(counts))
            visits[:len(counts)] += counts
            counts = visits
    support = np.flatnonzero(counts)
    rate = birth_rate(support, kp) + death_rate(support, kp)
    # dwell times relative to the longest one, which stay finite for tiny rates
    weights = counts[support] * (rate.min() / rate)
    return DiscreteDistribution.from_probs(support, weights / weights.sum())


def merged_histogram(
    kp: KineticParams,
    base_seed: int,
    n_replicas: int,
    n_events: int,
    burn_in_fraction: float = 0.1,
) -> DiscreteDistribution:
    """Average of independent replica histograms; replica r uses base_seed + r.

    Per-replica weights are fixed (1/n_replicas), so the merge is
    order-independent and deterministic given (base_seed, n_replicas).
    """
    if n_replicas < 1:
        raise DomainError("need at least one replica")
    hists = [stationary_histogram(kp, seed=base_seed + r, n_events=n_events,
                                  burn_in_fraction=burn_in_fraction)
             for r in range(n_replicas)]
    acc = np.bincount(np.concatenate([h.support for h in hists]),
                      weights=np.concatenate([h.probs for h in hists]) / n_replicas)
    support = np.flatnonzero(acc)
    return DiscreteDistribution.from_probs(support, acc[support] / acc[support].sum())
