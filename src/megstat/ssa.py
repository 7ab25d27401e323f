"""Exact stochastic simulation of the birth-death chain, walked as its jump chain.

From state n the chain jumps up with probability b(n)/(b(n)+d(n)) and down
otherwise, after an exponential wait at the total rate b(n)+d(n).  One
generator, ``_walk``, walks this embedded jump chain for both routes: one
uniform per jump, in blocks of ``_BLOCK`` events whose uniforms are drawn at
once, on up-probabilities it tabulates itself.  ``simulate_trajectory`` draws a
second uniform per event for its wait.  ``stationary_histogram`` draws no
waits: it weights each visit to n by the expected dwell time 1/total(n), the
Rao-Blackwellized jump-chain estimator (Gillespie 1977), and counts its
burn-in in events.

Randomness comes from numpy's PCG64 generator, which has a stable
cross-platform output stream and draws a block's doubles in the same order as
one long draw, so outputs do not depend on the block size; the generator name
is recorded so output artifacts are fully reproducible from (params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .birthdeath import _TAIL_TOL, _stationary_scan, birth_rate, death_rate
from .core import DiscreteDistribution, KineticParams, _integer
from .errors import DomainError

RNG_NAME = "numpy.random.PCG64"

_BLOCK = 4096
# stationary_histogram's cap on n_events, which bounds a call to a minute or two
# of walking (~86 ns per event on a shared 2-vCPU host)
_MAX_EVENTS = 10**9
# simulate_trajectory's cap on the events it stores, which bounds a call's
# memory: an 8-byte time and an 8-byte state each, 16 B per event and ~160 MB
# at the cap.  The events are written in place into arrays sized by max_events
# (or grown by doubling), so they are never held twice.
_MAX_STORED = 10**7


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


def _walk(kp: KineticParams, n: int, rng: np.random.Generator, n_events: int, draws: int):
    """Walk ``n_events`` events of the jump chain from n, in blocks of ``_BLOCK``.

    Yields, per block, its uniforms (``draws`` per event, the first of which
    picks the jump), the state held before each event (an array) and the
    state after the block's last event.  The walk reads up-probabilities
    b/(b+d) from a window of tabulated states, rebuilt before a block that
    could leave it to span two blocks either side of n (never below 0), so
    the window never holds more than 4*_BLOCK + 1 states, whatever the walk
    visited before.  Each up-probability is computed on its own state, so
    the path does not depend on the window.  A frozen state (total rate 0)
    gets up-probability 1, and so does state 0 (d(0) = 0): the walk never
    goes below 0, and the callers cut their path at the first frozen state.
    The walk refuses no rate: a state whose total rate overflows a double gets
    up-probability 0, or 1 when its birth rate overflows too, so the callers
    refuse every state the walk holds whose total rate overflows.
    """
    lo, up = 0, []
    for done in range(0, n_events, _BLOCK):
        size = min(_BLOCK, n_events - done)
        if not (lo <= max(n - size, 0) and n + size < lo + len(up)):
            half = 2 * size
            lo = max(n - half, 0)
            states = np.arange(lo, n + half + 1, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                birth = birth_rate(states, kp)
                up = birth / (birth + death_rate(states, kp))
            up[np.isnan(up)] = 1.0   # 0/0 at a frozen state, inf/inf past every double
            up = up.tolist()
        u = rng.random((size, draws))
        n -= lo
        path = []
        visit = path.append
        for x in u[:, 0].tolist():
            visit(n)
            n = n + 1 if x < up[n] else n - 1
        n += lo
        yield u, np.fromiter(path, dtype=np.int64, count=size) + lo, n


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
    state n is -log1p(-u)/total(n).  At most 10^7 events are stored: a
    ``max_events`` that is not an integer in [0, 10^7] is a ``DomainError`` up
    front, and so is a ``max_time`` that a walk of 10^7 events does not reach,
    an event time past the largest double before ``max_time``, or a state the
    walk holds whose total rate overflows a double.
    """
    if _integer("n_init", n_init) < 0:
        raise DomainError("n_init must be non-negative")
    if max_time is not None and not max_time >= 0:
        raise DomainError("max_time must be non-negative")
    if max_events is None and (max_time is None or max_time == math.inf):
        raise DomainError("need a stop condition: max_events or a finite max_time")
    cap_events = _integer("max_events", _MAX_STORED if max_events is None else max_events)
    if not 0 <= cap_events <= _MAX_STORED:
        raise DomainError(f"max_events must lie in [0, {_MAX_STORED}], got {max_events!r}")
    cap_time = math.inf if max_time is None else float(max_time)

    # filled in place; with only max_time given they start at one block and are
    # grown by doubling.  resize reallocates them in place, and no view of them
    # is kept, so refcheck is not needed
    times = np.empty(_BLOCK if max_events is None else cap_events)
    states = np.empty(len(times), dtype=np.int64)
    stored = 0
    t = 0.0
    frozen = False
    for u, held, n_end in _walk(kp, int(n_init), _generator(seed), cap_events, 2):
        # a rate or a time past every double is refused below, unless it lies past max_time
        with np.errstate(over="ignore", invalid="ignore"):
            rate = birth_rate(held, kp) + death_rate(held, kp)
            # the block's events end at the first frozen state or past max_time
            zero = np.flatnonzero(rate == 0.0)
            keep = zero[0] if len(zero) else len(held)
            clock = np.cumsum(np.concatenate(([t], -np.log1p(-u[:keep, 1]) / rate[:keep])))[1:]
        late = np.flatnonzero(clock > cap_time)
        if len(late):
            keep = late[0]
        if not np.isfinite(rate[:keep]).all():
            raise DomainError("the rates overflow a double within the simulated states")
        if stored + keep > len(times):
            size = min(2 * len(times), cap_events)
            for a in (times, states):
                a.resize(size, refcheck=False)
        times[stored:stored + keep] = clock[:keep]
        states[stored:stored + keep] = np.append(held[1:], n_end)[:keep]
        stored += keep
        if len(late):
            t = cap_time
            break
        if keep:
            t = clock[-1]
        if t == math.inf:
            raise DomainError("the event times overflow a double")
        if keep < len(held):
            frozen = True
            break
    else:
        if max_events is None:
            raise DomainError(f"max_time {max_time!r} is not reached within {_MAX_STORED} events")
    for a in (times, states):
        a.resize(stored, refcheck=False)
    return Trajectory(
        event_times=times,
        states=states,
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

    ``n_events`` must be an integer in [10^4, 10^9]; the cap bounds a call's work.
    The first floor(burn_in_fraction * n_events) events are burn-in.  Each
    later event counts a visit to the state it leaves, and a state's count is
    weighted by its expected dwell time 1/total(n): no waiting times are
    drawn, one uniform per event drives the walk, and the estimate has lower
    variance than the time-weighted occupancy of one trajectory.

    Before any walk, the chain takes ``stationary_distribution``'s verdict from
    the same scan: the frozen chain (b(0) = 0) gives the point mass at 0, and a
    chain with no law or too large a one raises as there.  A held state whose
    total rate overflows a double is a ``DomainError``, as in
    ``simulate_trajectory``: the walk's b/(b+d) and the dwell weight 1/(b+d)
    read 0 there, where the scan keeps the ratio of such rates.

    The estimate counts visits, so a stiff chain can hide a state that holds
    nearly all the mass but is left at once and rarely re-entered.  At
    k1 = k_m1 = 1e10, k2 = k_m2 = 1, A = 1, V = 1e-3, ``stationary_distribution``
    gives P(0) = 0.999; from state 1 the walk steps down with probability ~1e-10,
    so in 10^4 events it never returns to 0 after its burn-in, and the
    histogram has no state 0.
    """
    if not 10_000 <= _integer("n_events", n_events) <= _MAX_EVENTS:
        raise DomainError(f"n_events must lie in [10^4, 10^9], got {n_events!r}")
    if not 0.0 <= burn_in_fraction <= 0.5:
        raise DomainError("burn_in_fraction must lie in [0, 0.5]")
    if len(_stationary_scan(kp, _TAIL_TOL)[1]) == 1:   # the frozen chain
        return DiscreteDistribution.from_probs([0], [1.0])
    skip = int(burn_in_fraction * n_events)   # the burn-in events not yet walked

    counts = np.zeros(0, dtype=np.int64)
    top = 0   # the highest state held
    for _, held, _ in _walk(kp, 0, _generator(seed), int(n_events), 1):
        top = max(top, held.max())
        visits = np.bincount(held[skip:], minlength=len(counts))
        visits[:len(counts)] += counts
        counts = visits
        skip = max(skip - len(held), 0)
    support = np.flatnonzero(counts)
    # the walk starts at 0 and moves by one, so it held every state up to the highest
    states = np.arange(top + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = birth_rate(states, kp) + death_rate(states, kp)
    if not np.isfinite(rate).all():
        raise DomainError("the rates overflow a double within the simulated states")
    rate = rate[support]
    # dwell times relative to the longest one, which stay finite for tiny rates
    weights = counts[support] * (rate.min() / rate)
    return DiscreteDistribution.from_probs(support, weights / weights.sum())
