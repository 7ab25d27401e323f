"""Exact stochastic simulation of the birth-death chain (direct method).

Two reaction channels only, so the direct method is optimal: draw an
exponential waiting time at the total propensity, then pick birth vs death
proportionally.  Randomness comes from numpy's PCG64 generator, which has
a stable cross-platform output stream; the generator name is recorded so
output artifacts are fully reproducible from (params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution, KineticParams
from .errors import DomainError, FrozenChain

RNG_NAME = "numpy.random.PCG64"

_CHUNK = 65536


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


def simulate_trajectory(
    kp: KineticParams,
    n_init: int,
    seed: int,
    max_events: int | None = None,
    max_time: float | None = None,
) -> Trajectory:
    """Direct-method trajectory, deterministic given the seed."""
    if n_init < 0:
        raise DomainError("n_init must be non-negative")
    if max_time is not None and not max_time >= 0:
        raise DomainError("max_time must be non-negative")
    if max_events is None and (max_time is None or max_time == math.inf):
        raise DomainError("need a stop condition: max_events or a finite max_time")
    cap_events = math.inf if max_events is None else int(max_events)
    cap_time = math.inf if max_time is None else float(max_time)

    rng = np.random.Generator(np.random.PCG64(seed))
    b_slope = kp.k1 * kp.a
    b_const = kp.k_m2 * kp.a * kp.volume
    d_quad = kp.k_m1 / kp.volume
    k2 = kp.k2

    times = []
    states = []
    n = n_init
    t = 0.0
    frozen = False
    u = np.empty((0, 2))
    i_u = 0
    while len(times) < cap_events:
        birth = b_slope * n + b_const
        death = d_quad * n * (n - 1) + k2 * n
        total = birth + death
        if total == 0.0:
            frozen = True
            break
        if i_u >= len(u):
            u = rng.random(size=(_CHUNK, 2))
            i_u = 0
        wait = -math.log1p(-u[i_u, 0]) / total
        pick_birth = u[i_u, 1] * total < birth
        i_u += 1
        if t + wait > cap_time:
            t = cap_time
            break
        t += wait
        n = n + 1 if pick_birth else n - 1
        times.append(t)
        states.append(n)
    return Trajectory(
        event_times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=np.int64),
        initial_state=n_init,
        seed=seed,
        end_time=t,
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
    """Empirical stationary law from one long trajectory."""
    if n_events < 10_000:
        raise DomainError("n_events must be at least 10^4")
    if not 0.0 <= burn_in_fraction <= 0.5:
        raise DomainError("burn_in_fraction must lie in [0, 0.5]")
    traj = simulate_trajectory(kp, n_init=0, seed=seed, max_events=n_events)
    if traj.frozen and len(traj.states) < burn_in_fraction * n_events:
        raise FrozenChain(
            f"trajectory froze after {len(traj.states)} events, inside the burn-in window")
    t_start = burn_in_fraction * traj.end_time
    return occupancy_histogram(traj, t_start=t_start)


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
    acc = {}
    for r in range(n_replicas):
        h = stationary_histogram(kp, seed=base_seed + r, n_events=n_events,
                                 burn_in_fraction=burn_in_fraction)
        for n, p in zip(h.support, h.probs):
            acc[int(n)] = acc.get(int(n), 0.0) + p / n_replicas
    support = sorted(acc)
    probs = np.array([acc[n] for n in support])
    return DiscreteDistribution.from_probs(support, probs / probs.sum())
