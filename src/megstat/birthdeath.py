"""Birth-death kinetics of the exciton population.

State N gains one exciton at rate  b(N) = k1*A*N + k_m2*A*V  and loses one
at rate  d(N) = k_m1*N*(N-1)/V + k2*N.  The stationary law is the running
product of b(n)/d(n+1), accumulated in log space because the bimodal
regimes span many orders of magnitude between modes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import DiscreteDistribution, ExtremaReport, KineticParams
from .errors import (
    DegenerateDenominator,
    DomainError,
    NonNormalizable,
    NotApplicable,
    StepFailure,
    TruncationBreach,
)

_MAX_SUPPORT = 2_000_000


def birth_rate(n: int, kp: KineticParams) -> float:
    """Rate of N -> N+1 out of state n."""
    if n < 0:
        raise DomainError("state must be non-negative")
    return kp.k1 * kp.a * n + kp.k_m2 * kp.a * kp.volume


def death_rate(n: int, kp: KineticParams) -> float:
    """Rate of N -> N-1 out of state n (0 at the empty state)."""
    if n < 0:
        raise DomainError("state must be non-negative")
    return kp.k_m1 * n * (n - 1) / kp.volume + kp.k2 * n


def step_ratio(n: int, kp: KineticParams) -> float:
    """P(n+1)/P(n) of the stationary law: birth_rate(n)/death_rate(n+1)."""
    d = death_rate(n + 1, kp)
    b = birth_rate(n, kp)
    if d == 0:
        return math.inf if b > 0 else math.nan
    return b / d


def _check_normalizable(kp: KineticParams) -> None:
    # With k_m1 = 0 the ratio tends to k1*A/k2; geometric decay needs k1*A < k2.
    if kp.k_m1 == 0 and kp.k1 * kp.a >= kp.k2:
        raise NonNormalizable(
            "step ratio does not decay: k_m1 = 0 and k1*A >= k2")


def stationary_log_weights(kp: KineticParams, n_max: int) -> np.ndarray:
    """Unnormalized log stationary weights on 0..n_max (log P(N) - log P(0))."""
    logw = np.zeros(n_max + 1)
    for n in range(n_max):
        r = step_ratio(n, kp)
        logw[n + 1] = logw[n] + (math.log(r) if r > 0 else -math.inf)
    return logw


def stationary_weights_exact(kp: KineticParams, n_max: int) -> list:
    """Stationary weights on 0..n_max as exact rationals (rational inputs only)."""
    k1a = Fraction(kp.k1) * Fraction(kp.a)
    b0 = Fraction(kp.k_m2) * Fraction(kp.a) * Fraction(kp.volume)
    km1 = Fraction(kp.k_m1)
    k2 = Fraction(kp.k2)
    v = Fraction(kp.volume)
    w = [Fraction(1)]
    for n in range(n_max):
        b = k1a * n + b0
        d = km1 * (n + 1) * n / v + k2 * (n + 1)
        if d == 0:
            raise NonNormalizable("death rate vanishes with positive birth rate")
        w.append(w[-1] * b / d)
    return w


def stationary_distribution(kp: KineticParams, tail_tol: float = 1e-12) -> DiscreteDistribution:
    """Exact stationary law, truncated by a rigorous geometric tail bound.

    Support extends past the last local maximum until the step ratio is
    below 1 and decreasing, and the bound  P(N) * rho/(1-rho) < tail_tol
    (rho an upper bound on all later ratios) certifies the dropped mass.
    """
    if not 0 < tail_tol <= 1e-3:
        raise DomainError("tail_tol must lie in (0, 1e-3]")
    if birth_rate(0, kp) == 0:
        # empty chain: state 0 is absorbing from the start
        return DiscreteDistribution.from_probs([0], [1.0], degenerate=True)
    _check_normalizable(kp)

    limit_ratio = kp.k1 * kp.a / kp.k2 if kp.k_m1 == 0 else 0.0
    logw = [0.0]
    log_total = 0.0
    last_max = 0
    n = 0
    while True:
        r = step_ratio(n, kp)
        logw.append(logw[-1] + math.log(r))
        log_total = np.logaddexp(log_total, logw[-1])
        n += 1
        r_next = step_ratio(n, kp)
        if r >= 1.0 and r_next < 1.0:
            last_max = n
        if n > last_max and r < 1.0 and (kp.k_m1 == 0 or r_next <= r):
            # rho bounds every later ratio: for k_m1 > 0 the ratio is unimodal
            # in n, so r_next <= r certifies the decreasing branch; for
            # k_m1 = 0 it tends monotonically to k1*A/k2.
            rho = max(r, limit_ratio) if kp.k_m1 == 0 else r
            if rho < 1.0 and logw[-1] + math.log(rho / (1.0 - rho)) < math.log(tail_tol) + log_total:
                break
        if n > _MAX_SUPPORT:
            raise NonNormalizable(
                f"support exceeded {_MAX_SUPPORT} states without meeting the tail bound")
    return DiscreteDistribution.from_log_weights(np.arange(n + 1), np.array(logw))


def _quadratic_roots(a: float, b: float, c: float) -> tuple:
    """Real roots of a x^2 + b x + c, handling the degenerate linear case."""
    if a == 0:
        if b == 0:
            return ()
        return (-c / b,)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    s = math.sqrt(disc)
    return tuple(sorted(((-b - s) / (2 * a), (-b + s) / (2 * a))))


def continuous_extremum_roots(kp: KineticParams) -> tuple:
    """Real solutions of birth_rate(N) = death_rate(N+1) in continuous N.

    Derived directly from the rate laws:
    k_m1 N^2 + (k_m1 + k2 V - k1 A V) N + (k2 V - k_m2 A V^2) = 0.
    """
    v = kp.volume
    return _quadratic_roots(
        kp.k_m1,
        kp.k_m1 + kp.k2 * v - kp.k1 * kp.a * v,
        kp.k2 * v - kp.k_m2 * kp.a * v * v,
    )


def alt_closed_form_roots(kp: KineticParams) -> tuple:
    """Extremum roots per the alternative published closed form.

    Kept for cross-checking: it differs from the self-derived quadratic in
    the sign of the linear term and of the generation term, and is undefined
    for k_m1 = 0.  Disagreement raises the discrepancy flag in find_extrema.
    """
    if kp.k_m1 == 0:
        return ()
    v = kp.volume
    b = kp.k_m1 + kp.k2 * v - kp.k1 * kp.a * v
    disc = (kp.k1 * kp.a * v - kp.k_m1 - kp.k2 * v) ** 2 \
        - 4 * kp.k_m1 * (kp.k_m2 * kp.a * v * v + kp.k2 * v)
    if disc < 0:
        return ()
    s = math.sqrt(disc)
    return tuple(sorted(((b - s) / (2 * kp.k_m1), (b + s) / (2 * kp.k_m1))))


def find_extrema(kp: KineticParams, tail_tol: float = 1e-12) -> ExtremaReport:
    """Locate integer extrema of the stationary law by scanning the step ratio.

    N is a maximum iff P(N) >= both neighbours, i.e. ratio(N-1) >= 1 and
    ratio(N) <= 1 (boundary N=0 needs only the right test).  Exact ties
    (ratio = 1) report both tied states as maxima.
    """
    roots = continuous_extremum_roots(kp)
    alt = alt_closed_form_roots(kp)
    disagree = len(alt) != len(roots) or any(
        abs(x - y) > 1e-9 * max(1.0, abs(x), abs(y)) for x, y in zip(roots, alt))

    d = stationary_distribution(kp, tail_tol=tail_tol)
    if d.degenerate:
        return ExtremaReport(
            continuous_roots=roots, integer_maxima=(0,), integer_minima=(),
            is_bimodal=False, normalizable=True,
            alt_closed_form_roots=alt, discrepancy_flag=disagree)
    top = int(d.support[-1])
    ratios = [step_ratio(n, kp) for n in range(top)]
    maxima, minima = [], []
    for n in range(top):
        left_up = (n == 0) or ratios[n - 1] >= 1.0
        left_down = (n == 0) or ratios[n - 1] <= 1.0
        if left_up and ratios[n] <= 1.0:
            maxima.append(n)
        elif n > 0 and left_down and ratios[n] >= 1.0:
            minima.append(n)

    # adjacent tied maxima form one plateau; bimodality needs two plateaus
    plateaus = 1 + sum(1 for a, b in zip(maxima, maxima[1:]) if b - a > 1)
    return ExtremaReport(
        continuous_roots=roots,
        integer_maxima=tuple(maxima),
        integer_minima=tuple(minima),
        is_bimodal=len(maxima) >= 2 and plateaus >= 2,
        normalizable=True,
        alt_closed_form_roots=alt,
        discrepancy_flag=disagree,
        ratio_at_maxima=tuple(ratios[n] for n in maxima),
    )


def fast_meg_limit_root(kp: KineticParams) -> float:
    """Continuous extremum location in the fast-generation limit k_m1 = 0.

    Returns (k2 - k_m2*A*V) / (k1*A - k2).  The caller must check
    normalizability (k1*A < k2) for this to be an actual maximum.
    """
    if kp.k_m1 != 0:
        raise DomainError("fast-generation limit requires k_m1 = 0")
    denom = kp.k1 * kp.a - kp.k2
    if denom == 0:
        raise DegenerateDenominator("k1*A = k2: extremum formula undefined")
    return (kp.k2 - kp.k_m2 * kp.a * kp.volume) / denom


def detailed_balance_gap(kp: KineticParams) -> float:
    """Distance between the two reactions' equilibrium fixed points.

    Zero iff both reactions individually balance, in which case the
    stationary law is exactly Poisson with mean (k1*A/k_m1)*V.
    """
    if kp.k_m1 == 0 or kp.k2 == 0:
        raise NotApplicable("detailed-balance gap needs k_m1 > 0 and k2 > 0")
    return abs(kp.k1 * kp.a / kp.k_m1 - kp.k_m2 * kp.a / kp.k2)


def transient_evolve(
    kp: KineticParams,
    initial: DiscreteDistribution,
    t_grid,
    n_max: int,
    conservation_tol: float = 1e-9,
    boundary_tol: float = 1e-9,
) -> list:
    """Integrate the probability-flow equations on the truncated lattice 0..n_max.

    Classic fixed-step 4th-order Runge-Kutta; the step is set from the
    fastest total rate on the lattice.  The upper boundary leaks (mass past
    n_max is dropped, never reflected or renormalized); a breach of
    ``boundary_tol`` at n_max or a conservation drift beyond
    ``conservation_tol`` is an error, not a silent fix.
    """
    t_grid = [float(t) for t in t_grid]
    if not all(0 <= t < math.inf for t in t_grid) or any(
            t2 <= t1 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be finite, non-negative and strictly increasing")
    if initial.support[-1] > n_max:
        raise DomainError("initial distribution extends past n_max")

    states = np.arange(n_max + 1)
    b = kp.k1 * kp.a * states + kp.k_m2 * kp.a * kp.volume
    dr = kp.k_m1 * states * (states - 1) / kp.volume + kp.k2 * states

    p = np.zeros(n_max + 1)
    p[np.searchsorted(states, initial.support)] = initial.probs

    def rhs(q):
        out = -(b + dr) * q
        out[1:] += b[:-1] * q[:-1]    # inflow from below
        out[:-1] += dr[1:] * q[1:]    # inflow from above
        return out

    max_rate = float(np.max(b + dr))
    dt_cap = 0.1 / max_rate if max_rate > 0 else math.inf

    results = []
    t = 0.0
    for t_out in t_grid:
        span = t_out - t
        if span > 0 and max_rate > 0:
            n_steps = max(1, int(math.ceil(span / dt_cap)))
            h = span / n_steps
            for _ in range(n_steps):
                k1 = rhs(p)
                k2 = rhs(p + 0.5 * h * k1)
                k3 = rhs(p + 0.5 * h * k2)
                k4 = rhs(p + h * k3)
                p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t_out
        if p[-1] > boundary_tol:
            raise TruncationBreach(
                f"mass {p[-1]:.3e} at n_max={n_max} at t={t}; enlarge the lattice")
        total = p.sum()
        if abs(total - 1.0) > conservation_tol:
            raise StepFailure(f"probability sum drifted to {total!r} at t={t}")
        q = np.where((p < 0) & (p > -1e-12), 0.0, p)
        if np.any(q < 0):
            raise StepFailure(f"negative probability {q.min():.3e} at t={t}")
        # conservation already verified above; rescale roundoff so the
        # returned object meets the exact-normalization invariant
        results.append(DiscreteDistribution.from_probs(states, q / q.sum()))
    return results
