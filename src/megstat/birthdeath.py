"""Birth-death kinetics of the exciton population.

State N gains one exciton at rate  b(N) = k1*A*N + k_m2*A*V  and loses one
at rate  d(N) = k_m1*N*(N-1)/V + k2*N, written once, in :func:`birth_rate`
and :func:`death_rate`, for every route.  The stationary law is the running
product of b(n)/d(n+1), accumulated in log space because the bimodal
regimes span many orders of magnitude between modes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import _MAX_SUPPORT, DiscreteDistribution, ExtremaReport, KineticParams, _integer
from .errors import (
    DegenerateDenominator,
    DomainError,
    NonNormalizable,
    NotApplicable,
    StepFailure,
    SupportTooLarge,
    TruncationBreach,
)

_TAIL_TOL = 1e-12                          # the default; find_extrema always scans at it
_BOUNDARY_TOL = _CONSERVATION_TOL = 1e-9   # transient_evolve's error bounds


def birth_rate(n, kp: KineticParams):
    """Rate of N -> N+1 out of state n, an int or an array of states."""
    if (n.min(initial=0) if isinstance(n, np.ndarray) else n) < 0:
        raise DomainError("state must be non-negative")
    return kp.k1 * kp.a * n + kp.k_m2 * kp.a * kp.volume


def death_rate(n, kp: KineticParams):
    """Rate of N -> N-1 out of state n, an int or an array (0 at the empty state)."""
    if (n.min(initial=0) if isinstance(n, np.ndarray) else n) < 0:
        raise DomainError("state must be non-negative")
    return kp.k_m1 * n * (n - 1) / kp.volume + kp.k2 * n


def step_ratio(n: int, kp: KineticParams) -> float:
    """P(n+1)/P(n) of the stationary law: birth_rate(n)/death_rate(n+1)."""
    d = death_rate(n + 1, kp)
    b = birth_rate(n, kp)
    if d == 0:
        return math.inf if b > 0 else math.nan
    return b / d


def _check_support(kp: KineticParams, tail_tol: float) -> None:
    """Reject a law that does not exist or needs too many states, before any scan.

    With k_m1 > 0, b(n) - d(n+1) is a concave quadratic in n, so r(n) >= 1
    between the roots of :func:`continuous_extremum_roots`.  The scan's cut N
    needs r(N-1) < 1 on the ratio's decreasing branch (below the smaller root
    the ratio still rises), so it lies past the larger root.  When that root
    passes _MAX_SUPPORT + 2 (the margin absorbs rounding), no cut the scan
    tests can hold.

    With k_m1 = 0 the law is negative binomial with r = c/(k1*A), c = k_m2*A*V,
    and rho = k1*A/k2, or Poisson(lam = c/k2) when k1*A = 0.  It exists only
    for rho < 1.  The scan's cut N needs r(N-1) < 1, so it lies past the mode
    (c - k2)/(k2 - k1*A).  Past the mode, the mass at m and above is at least
    P(m), or P(m)/(1 - rho_min) with rho_min = rho*min(1, (m+r)/(m+1)) a bound
    on every ratio past m.  When that holds twice tail_tol at
    m = _MAX_SUPPORT + 2, past every state the scan tests, no tail certificate
    can hold there and the scan would run out of states.
    """
    if kp.k_m1 > 0:
        roots = continuous_extremum_roots(kp)
        if roots and roots[-1] > _MAX_SUPPORT + 2:
            raise SupportTooLarge(f"the law's upper extremum root {roots[-1]:.6g} "
                                  f"lies past {_MAX_SUPPORT} states")
        return
    k1a, c = kp.k1 * kp.a, kp.k_m2 * kp.a * kp.volume
    if k1a >= kp.k2:
        raise NonNormalizable("step ratio does not decay: k_m1 = 0 and k1*A >= k2")
    rho, lam, m = k1a / kp.k2, c / kp.k2, _MAX_SUPPORT + 2
    r = c / k1a if k1a > 0 else math.inf
    if (c - kp.k2) / (kp.k2 - k1a) > _MAX_SUPPORT + 1:
        log_tail = math.inf   # the mode itself lies past every cut the scan tests
    elif r <= 1e12:
        log_tail = (math.lgamma(m + r) - math.lgamma(r) - math.lgamma(m + 1)
                    + m * math.log(rho) + r * math.log1p(-rho)
                    - math.log1p(-rho * min(1.0, (m + r) / (m + 1))))
    else:
        # past r = 1e12 the rounding of lgamma(m + r) - lgamma(r) nears the factor
        # 2, so bound P(m) below by Gamma(m + r)/Gamma(r) >= r^m: exact for Poisson
        log_tail = (r * math.log1p(-rho) if k1a > 0 else -lam) + m * math.log(lam) \
            - math.lgamma(m + 1)
    if log_tail >= math.log(2 * tail_tol):
        law = (f"negative-binomial law (r={r:.6g}, rho={rho:.6g})" if k1a > 0
               else f"Poisson law (lam={lam:.6g})")
        raise SupportTooLarge(f"the {law} holds more than {tail_tol:g} past {_MAX_SUPPORT} states")


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


def _stationary_scan(kp: KineticParams, tail_tol: float) -> tuple:
    """Log weights of the stationary law on lo..N and the ratios r(n) = b(n)/d(n+1), lo <= n < N.

    Returns ``(lo, logw, ratios)`` with logw[0] = 0.  The chain lives on n >= 1
    (lo = 1) when d(1) = k2 = 0 < b(0): state 0 is then left at once and never
    re-entered.  The empty chain (b(0) = 0) is frozen at state 0.

    The product runs in doubling chunks of array arithmetic.  N is the first
    state past lo where r(N-1) < 1, the ratio is on its decreasing branch
    (k_m1 > 0: r(N) <= r(N-1), as the ratio is unimodal in n; k_m1 = 0: it
    tends monotonically to k1*A/k2), and the geometric bound
    P(N) * rho/(1-rho) < tail_tol, with rho an upper bound on every later
    ratio, certifies the dropped mass.
    """
    if not 0 < tail_tol <= 1e-3:
        raise DomainError("tail_tol must lie in (0, 1e-3]")
    if birth_rate(0, kp) == 0:
        return 0, np.zeros(1), np.zeros(0)
    _check_support(kp, tail_tol)

    limit_ratio = kp.k1 * kp.a / kp.k2 if kp.k_m1 == 0 else 0.0
    log_tol = math.log(tail_tol)
    lo = 1 if kp.k2 == 0 else 0
    logws, ratios = [np.zeros(1)], []
    last = log_total = 0.0
    start, size = lo, 256
    while True:
        # r(start..start+size): the weights of states start+1..start+size,
        # plus the ratio one past the last of them for the decreasing test
        n = np.arange(start, start + size + 1, dtype=float)
        r = birth_rate(n, kp) / death_rate(n + 1, kp)
        r_prev, r_next = r[:-1], r[1:]
        log_r = np.log(r_prev)
        log_r[0] += last
        logw = np.cumsum(log_r)
        totals = np.logaddexp.accumulate(np.concatenate(([log_total], logw)))[1:]
        rho = np.maximum(r_prev, limit_ratio)   # rho < 1 implies r(N-1) < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (rho < 1.0) & (logw + np.log(rho / (1.0 - rho)) < log_tol + totals)
        if kp.k_m1 > 0:
            ok &= r_next <= r_prev
        hit = np.flatnonzero(ok)
        if hit.size:
            k = hit[0] + 1
            logws.append(logw[:k])
            ratios.append(r_prev[:k])
            return lo, np.concatenate(logws), np.concatenate(ratios)
        logws.append(logw)
        ratios.append(r_prev)
        last, log_total = logw[-1], totals[-1]
        start += size
        if start > _MAX_SUPPORT:
            raise SupportTooLarge(
                f"support exceeded {_MAX_SUPPORT} states without meeting the tail bound")
        size = min(2 * size, _MAX_SUPPORT + 1 - start)


def stationary_distribution(kp: KineticParams, tail_tol: float = _TAIL_TOL) -> DiscreteDistribution:
    """Exact stationary law, truncated by a rigorous geometric tail bound.

    Support extends past the last local maximum until the step ratio is
    below 1 and decreasing, and the bound  P(N) * rho/(1-rho) < tail_tol
    (rho an upper bound on all later ratios) certifies the dropped mass.
    With k2 = 0 the support starts at 1, because state 0 is transient.  A law
    whose certified support passes 2,000,000 states raises ``SupportTooLarge``.
    """
    lo, logw, _ = _stationary_scan(kp, tail_tol)
    return DiscreteDistribution.from_log_weights(
        np.arange(lo, lo + len(logw)), logw, degenerate=birth_rate(0, kp) == 0)


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


def find_extrema(kp: KineticParams) -> ExtremaReport:
    """Locate integer extrema of the stationary law from its step ratios.

    N is a maximum iff P(N) >= both neighbours, i.e. ratio(N-1) >= 1 and
    ratio(N) <= 1 (the first state of the support needs only the right
    test).  Exact ties (ratio = 1) report both tied states as maxima.  A
    state that is not a maximum is a minimum iff ratio(N-1) <= 1 and
    ratio(N) >= 1.  The ratios come from the stationary scan at a tail bound
    of 1e-12; the extrema do not depend on it, because past the cut the
    ratio stays below 1, so no later state is a maximum or a minimum.
    """
    roots = continuous_extremum_roots(kp)
    alt = alt_closed_form_roots(kp)
    disagree = len(alt) != len(roots) or any(
        abs(x - y) > 1e-9 * max(1.0, abs(x), abs(y)) for x, y in zip(roots, alt))

    lo, _, ratios = _stationary_scan(kp, _TAIL_TOL)
    # the top state N closes the scan with a ratio below 1: the tail
    # certificate puts r(N) below 1, and the frozen empty chain has r(0) = 0
    r = np.append(ratios, 0.0)
    # the first state has no left neighbour: it can be a maximum, never a minimum
    r_left = np.concatenate(([math.inf], r[:-1]))
    is_max = (r_left >= 1.0) & (r <= 1.0)
    is_min = ~is_max & (r_left <= 1.0) & (r >= 1.0)
    maxima = [lo + int(i) for i in np.flatnonzero(is_max)]
    minima = [lo + int(i) for i in np.flatnonzero(is_min)]

    # adjacent tied maxima form one plateau; bimodality needs two plateaus
    plateaus = 1 + sum(1 for a, b in zip(maxima, maxima[1:]) if b - a > 1)
    return ExtremaReport(
        continuous_roots=roots,
        integer_maxima=tuple(maxima),
        integer_minima=tuple(minima),
        is_bimodal=len(maxima) >= 2 and plateaus >= 2,
        alt_closed_form_roots=alt,
        discrepancy_flag=disagree,
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


def transient_evolve(kp: KineticParams, initial: DiscreteDistribution, t_grid, n_max: int) -> list:
    """Integrate the probability-flow equations on the truncated lattice 0..n_max.

    Classic fixed-step 4th-order Runge-Kutta; the step is set from the
    fastest total rate on the lattice.  The upper boundary leaks (mass past
    n_max is dropped, never reflected or renormalized); mass above 1e-9 at
    n_max (``TruncationBreach``) or a drift of the total beyond 1e-9
    (``StepFailure``) is an error, not a silent fix.
    """
    t_grid = [float(t) for t in t_grid]
    if not all(0 <= t < math.inf for t in t_grid) or any(
            t2 <= t1 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be finite, non-negative and strictly increasing")
    if initial.support[-1] > _integer("n_max", n_max):
        raise DomainError("initial distribution extends past n_max")

    states = np.arange(n_max + 1)
    b = birth_rate(states, kp)
    dr = death_rate(states, kp)

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
        if p[-1] > _BOUNDARY_TOL:
            raise TruncationBreach(
                f"mass {p[-1]:.3e} at n_max={n_max} at t={t}; enlarge the lattice")
        total = p.sum()
        if abs(total - 1.0) > _CONSERVATION_TOL:
            raise StepFailure(f"probability sum drifted to {total!r} at t={t}")
        q = np.where((p < 0) & (p > -1e-12), 0.0, p)
        if np.any(q < 0):
            raise StepFailure(f"negative probability {q.min():.3e} at t={t}")
        # conservation already verified above; rescale roundoff so the
        # returned object meets the exact-normalization invariant
        results.append(DiscreteDistribution.from_probs(states, q / q.sum()))
    return results
