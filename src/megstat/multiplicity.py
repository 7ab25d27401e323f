"""Statistical-theory multiplicity law for multi-exciton generation.

The probability of producing n carriers (n even, counting electrons and
holes) from one absorbed photon is the normalized phase-space weight

    ln w(n) = n ln g + (3n/2 - 1) ln(eps - n/2) - ln Gamma(3n/2)

up to an n-independent additive constant that cancels on normalization.
Here g is the dimensionless coupling and eps the photon-to-gap energy
ratio.  All arithmetic stays in log space: Gamma(3n/2) overflows double
precision past n ~ 110.

At fixed eps the weight is n*theta + c(n) with theta = ln g, and the
channel term c(n) does not depend on g, so each call computes it once as
an array over the open channels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (_MAX_SUPPORT, DiscreteDistribution, ReducedStatParams, moments,
                   normalize_log_weights)
from .errors import DegenerateChannel, DomainError, NoChannel, SupportTooLarge, Unreachable

__all__ = [
    "log_stat_weight",
    "multiplicity_distribution",
    "CalibrationResult",
    "calibrate_coupling",
    "deviation_scan",
    "open_channels",
]

# ln Gamma(k) at k = 0, 1, 2, ...: math.lgamma values, extended on demand.
# An entry depends only on its k, so no result depends on call history.
_LGAMMA = np.array([math.inf])

# largest theta = ln g whose coupling is a finite double
_LOG_MAX_COUPLING = math.log(sys.float_info.max)

# calibrate_coupling's distance to the target mean, and its cap on laws evaluated
_MEAN_TOL, _MAX_ITER = 1e-6, 200


def _lgamma(k: np.ndarray) -> np.ndarray:
    """ln Gamma at the non-negative integers k (ascending) from the shared table."""
    global _LGAMMA
    table = _LGAMMA
    if k[-1] >= len(table):
        size = max(int(k[-1]) + 1, 2 * len(table))
        table = np.concatenate([table, [math.lgamma(j) for j in range(len(table), size)]])
        _LGAMMA = table
    return table[k]


def open_channels(energy_ratio: float) -> np.ndarray:
    """Even n >= 2 with eps - n/2 > 0; more than 2,000,000 raise ``SupportTooLarge``."""
    if not math.isfinite(energy_ratio):
        raise DomainError(f"energy_ratio must be finite, got {energy_ratio}")
    if energy_ratio <= 1:
        return np.empty(0, dtype=np.int64)
    count = math.ceil(energy_ratio) - 1   # largest n with n/2 < eps, halved
    if count > _MAX_SUPPORT:
        raise SupportTooLarge(f"energy_ratio {energy_ratio!r} opens over {_MAX_SUPPORT} channels")
    return np.arange(2, 2 * count + 1, 2, dtype=np.int64)


def _channel_terms(support: np.ndarray, energy_ratio: float) -> np.ndarray:
    """The g-independent part of ln w(n): (3n/2 - 1) ln(eps - n/2) - ln Gamma(3n/2)."""
    k = 3 * support // 2
    return (k - 1) * np.log(energy_ratio - support / 2.0) - _lgamma(k)


def log_stat_weight(n: int, params: ReducedStatParams) -> float:
    """Log of the reduced statistical weight for the n-carrier channel."""
    if n < 2 or n % 2 != 0:
        raise DomainError(f"n must be an even integer >= 2, got {n}")
    residual = params.energy_ratio - n / 2.0
    if residual <= 0:
        raise DomainError(
            f"channel n={n} closed: residual energy {residual} not positive")
    if n // 2 > _MAX_SUPPORT:
        raise SupportTooLarge(f"channel n={n} lies past {_MAX_SUPPORT} channels")
    c = _channel_terms(np.array([n], dtype=np.int64), params.energy_ratio)
    return n * math.log(params.coupling) + float(c[0])


def multiplicity_distribution(params: ReducedStatParams) -> DiscreteDistribution:
    """Normalized multiplicity law over all energetically open channels."""
    support = open_channels(params.energy_ratio)
    if len(support) == 0:
        raise NoChannel(
            f"energy_ratio {params.energy_ratio} opens no channel (need > 1)")
    logw = support * math.log(params.coupling) + _channel_terms(support, params.energy_ratio)
    return DiscreteDistribution.from_log_weights(support, logw)


@dataclass(frozen=True)
class CalibrationResult:
    coupling: float
    achieved_mean: float
    iterations: int
    bracket: tuple


def calibrate_coupling(energy_ratio: float, target_mean: float) -> CalibrationResult:
    """Find the coupling g whose multiplicity law has the requested mean, within 1e-6.

    With theta = ln g the law is an exponential family in n, p(n) ~
    exp(n*theta + c(n)), so d<n>/dtheta = Var(n) > 0 when two or more
    channels are open: the mean rises strictly with g, the root is unique,
    and Newton's step -(<n> - target)/Var(n) is exact to first order.
    Each step is kept inside a bracket that always holds the root; a step
    that leaves it is replaced by bisection.  ``iterations`` counts the laws
    evaluated (at most 200) and ``bracket`` is the last bracket, in g.
    """
    support = open_channels(energy_ratio)
    if len(support) < 2:
        raise DegenerateChannel(
            f"energy_ratio {energy_ratio} opens {len(support)} channel(s); "
            "the mean is constant and cannot be calibrated")
    n_max = int(support[-1])
    if not (2.0 < target_mean < n_max):
        raise Unreachable(
            f"target mean {target_mean} outside the reachable range (2, {n_max})")
    c = _channel_terms(support, energy_ratio)

    # Initial bracket.  log p(n+2) - log p(n) = 2 theta + dc(n).  Where it is
    # >= L for every n, E[n_max - n] <= 2x/(1-x)^2 <= 8x with x = e^-L <= 1/2
    # (geometric tail below the top channel); where it is <= -L for every n,
    # E[n - 2] obeys the same bound.  8x <= gap/2 puts the target strictly
    # between the means at the two ends.  The top end is capped where g
    # would overflow; a root past the cap collapses the bracket.
    dc = np.diff(c)
    gap = min(target_mean - 2.0, n_max - target_mean)
    big_l = max(math.log(2.0), math.log(16.0 / gap))
    lo = -(float(dc.max()) + big_l) / 2.0
    hi = min((big_l - float(dc.min())) / 2.0, _LOG_MAX_COUPLING)
    # start where the channels next to the target weigh the same
    j = min(max(int(round((target_mean - 2.0) / 2.0)), 0), len(dc) - 1)
    theta = min(max(-float(dc[j]) / 2.0, lo), hi)

    for iterations in range(1, _MAX_ITER + 1):
        # evaluate at ln of the coupling that will be returned, so that the
        # achieved mean is the mean multiplicity_distribution gives for it
        coupling = math.exp(theta)
        probs = normalize_log_weights(support * math.log(coupling) + c)
        mean = float(np.dot(support, probs))
        if abs(mean - target_mean) <= _MEAN_TOL:
            return CalibrationResult(coupling=coupling, achieved_mean=mean,
                                     iterations=iterations,
                                     bracket=(math.exp(lo), math.exp(hi)))
        if mean < target_mean:
            lo = theta
        else:
            hi = theta
        variance = float(np.dot((support - mean) ** 2, probs))
        theta += (target_mean - mean) / variance if variance > 0 else math.inf
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
            if not lo < theta < hi:
                raise Unreachable(
                    f"no double-precision coupling gives mean {target_mean} within {_MEAN_TOL}")
    raise Unreachable(
        f"calibration did not reach mean {target_mean} within {_MAX_ITER} iterations")


def deviation_scan(coupling: float, energy_ratios) -> list:
    """Poisson-deviation mean^2 + mean - <n^2> at each energy ratio."""
    out = []
    for eps in energy_ratios:
        params = ReducedStatParams(coupling=coupling, energy_ratio=eps)
        d = multiplicity_distribution(params)
        out.append((float(eps), moments(d).poisson_deviation))
    return out
