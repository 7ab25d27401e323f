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
# transient_evolve steps by e^(hQ) = e^(-x) e^(hB), with B = Q + Lambda I >= 0 and
# e^(hB) a Taylor polynomial, at x = h ||B||_1 = h Lambda <= _THETA, the
# Al-Mohy-Higham bound for degree 55 at 2^-53.  After the shift the degree-m step
# is off by at most e^(-x) sum_{k>m} x^k/k! in the 1-norm, a Poisson(x) tail, which
# e^(-x) x^(m+1)/(m+1)! / (1 - x/(m+2)) bounds; _TAIL, the target for that bound,
# is the Al-Mohy-Higham unshifted bound at degree 30 and 3.54, 1.43e-17.  Degree 47
# meets it at x = 9.9.
_THETA = 9.9
_TAIL = 3.54 ** 31 / math.factorial(31) / (1 - 3.54 / 32)
# transient_evolve refuses a t_grid whose Taylor products times (n_max + 1 + _STEP_STATES)
# pass _MAX_TRANSIENT_WORK.  A product's fixed numpy overhead costs about 1000 states
# (~3.4 us a product at n_max = 40; 2.6-6.7 ns a state-product from n_max = 40 to
# 2,000,000, shared 2-vCPU x86-64 host); at 1.5-3.9e8 state-products a second the cap
# is 38 to 100 seconds, like stationary_histogram's event cap.  The n_max = 40, t = 30
# test needs 1.3e8.
_STEP_STATES = 1000
_MAX_TRANSIENT_WORK = 1.5e10
# transient_evolve also refuses a t_grid whose laws, len(t_grid) * (n_max + 1)
# probabilities, pass _MAX_STORED_STATES, which bounds a call's memory as
# ssa._MAX_STORED does: 8 B a probability (the laws share one support array),
# ~80 MB at the cap.  The work cap alone lets an output time cost one step, or
# nothing when every rate is 0.
_MAX_STORED_STATES = 10**7


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


def stationary_weights_exact(kp: KineticParams, n_max: int) -> list:
    """Stationary weights on 0..n_max as exact rationals (rational inputs only)."""
    exact = KineticParams(**{k: Fraction(v) for k, v in vars(kp).items()})
    w = [Fraction(1)]
    for n in range(n_max):
        b, d = birth_rate(n, exact), death_rate(n + 1, exact)
        if d == 0:
            raise NonNormalizable("death rate vanishes with positive birth rate")
        w.append(w[-1] * b / d)
    return w


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _stationary_scan(kp: KineticParams, tail_tol: float) -> tuple:
    """Log weights of the stationary law on lo..N and the ratios r(n) = b(n)/d(n+1), lo <= n < N.

    The one verdict on the stationary law, for ``stationary_distribution``,
    ``find_extrema`` and ``ssa.stationary_histogram``.  Returns
    ``(lo, logw, ratios)`` with logw[0] = 0.  The chain lives on n >= 1
    (lo = 1) when d(1) = k2 = 0 < b(0): state 0 is then left at once and never
    re-entered.  Only the frozen chain (b(0) = 0) has the single state 0.

    Up front: r(n) >= 1 between the roots of :func:`continuous_extremum_roots`
    (up to the one root, the mode, when k_m1 = 0), and the cut N needs
    r(N-1) < 1 on the ratio's decreasing branch, so no cut can hold once the
    larger root passes m = _MAX_SUPPORT + 2 (the margin absorbs rounding), or
    once b(m) >= d(m+1) when k_m1 > 0 leaves one root (the other was lost);
    only then, as b(m) and d(m+1) may both overflow on a law the scan cuts
    after a few states, and inf >= inf says nothing of the roots.  With
    k_m1 = 0 the law is negative binomial, r = c/(k1*A) with c = k_m2*A*V and
    rho = k1*A/k2 < 1 (Poisson(lam = c/k2) when k1*A = 0).  Every ratio past m
    is at least rho_m = rho*min(1, (m+r)/(m+1)), so the mass at m and above is
    at least P(m)/(1 - rho_m), and no cut can hold when that reaches 2*tail_tol
    at m = _MAX_SUPPORT + 2.

    Then the product runs in doubling chunks of array arithmetic, under one
    ``np.errstate``; a ratio of 0 or inf takes its exact log, log b - log d,
    and where b or d overflows, both are taken from the rate constants scaled
    by one power of two, which leaves the ratio as it is.
    N is the first state past lo where r(N-1) < 1, the ratio is on its
    decreasing branch (k_m1 > 0: r(N) <= r(N-1), as the ratio is unimodal in
    n; k_m1 = 0: it tends monotonically to k1*A/k2), and the geometric bound
    P(N) * rho/(1-rho) < tail_tol, with rho an upper bound on every later
    ratio, certifies the dropped mass.
    """
    if not 0 < tail_tol <= 1e-3:
        raise DomainError("tail_tol must lie in (0, 1e-3]")
    if birth_rate(0, kp) == 0:
        return 0, np.zeros(1), np.zeros(0)
    k1a, c = kp.k1 * kp.a, kp.k_m2 * kp.a * kp.volume
    if kp.k_m1 == 0 and k1a >= kp.k2:
        raise NonNormalizable("step ratio does not decay: k_m1 = 0 and k1*A >= k2")
    roots, m = continuous_extremum_roots(kp), _MAX_SUPPORT + 2
    if roots and roots[-1] > m:
        raise SupportTooLarge(f"the law's upper extremum root {roots[-1]:.6g} "
                              f"lies past {_MAX_SUPPORT} states")
    if kp.k_m1 > 0 and len(roots) == 1 and birth_rate(m, kp) >= death_rate(m + 1, kp):
        raise SupportTooLarge(f"the upper extremum root is lost, and b >= d past {_MAX_SUPPORT} states")
    if kp.k_m1 == 0:
        rho, lam = k1a / kp.k2, c / kp.k2
        r = c / k1a if k1a > 0 else math.inf
        # log r, log rho and log lam as differences of logs: the ratios may underflow
        # to 0; lgamma(m + r) - lgamma(r) = log r + lgamma(m + r) - lgamma(1 + r)
        if r <= 1e12:
            log_tail = (math.log(c) - math.log(k1a) + math.lgamma(m + r) - math.lgamma(1 + r)
                        - math.lgamma(m + 1)
                        + m * (math.log(k1a) - math.log(kp.k2)) + r * math.log1p(-rho)
                        - math.log1p(-rho * min(1.0, (m + r) / (m + 1))))
        else:
            # past r = 1e12 the rounding of lgamma(m + r) - lgamma(r) nears the factor
            # 2, so bound P(m) below by Gamma(m + r)/Gamma(r) >= r^m: exact for Poisson
            log_tail = (r * math.log1p(-rho) if k1a > 0 else -lam) \
                + m * (math.log(c) - math.log(kp.k2)) - math.lgamma(m + 1)
        if log_tail >= math.log(2 * tail_tol):
            law = (f"negative-binomial law (r={r:.6g}, rho={rho:.6g})" if k1a > 0
                   else f"Poisson law (lam={lam:.6g})")
            raise SupportTooLarge(f"the {law} holds more than {tail_tol:g} past {_MAX_SUPPORT} states")

    limit_ratio = k1a / kp.k2 if kp.k_m1 == 0 else 0.0
    log_tol = math.log(tail_tol)
    lo = 1 if kp.k2 == 0 else 0
    logws, ratios = [np.zeros(1)], []
    last = log_total = 0.0
    start, size = lo, 256
    while True:
        # r(start..start+size): the weights of states start+1..start+size,
        # plus the ratio one past the last of them for the decreasing test
        n = np.arange(start, start + size + 1, dtype=float)
        b, d = birth_rate(n, kp), death_rate(n + 1, kp)
        if math.isinf(b[-1]) or math.isinf(d[-1]):   # the rates grow with n: the last are the largest
            # where a rate overflows, both rates come from the rate constants scaled
            # by one power of two, the largest to [1/2, 1): the ratio is unchanged
            over = np.isinf(b) | np.isinf(d)
            e = -math.frexp(max(kp.k1, kp.k_m1, kp.k2, kp.k_m2))[1]
            small = KineticParams(*(math.ldexp(x, e) for x in (kp.k1, kp.k_m1, kp.k2, kp.k_m2)),
                                  a=kp.a, volume=kp.volume)
            b = np.where(over, birth_rate(n, small), b)
            d = np.where(over, death_rate(n + 1, small), d)
        r = b / d
        r_prev, r_next = r[:-1], r[1:]
        log_r = np.log(r_prev)
        edge = np.isinf(log_r)   # a ratio of 0 or inf takes its exact log
        log_r[edge] = np.log(b[:-1][edge]) - np.log(d[:-1][edge])
        log_r[0] += last
        logw = np.cumsum(log_r)
        totals = np.logaddexp.accumulate(np.concatenate(([log_total], logw)))[1:]
        rho = np.maximum(r_prev, limit_ratio)   # rho < 1 implies r(N-1) < 1
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
    With k2 = 0 the support starts at 1, because state 0 is transient; the
    frozen chain (b(0) = 0) gives the point mass at 0, the only law on {0}.
    A law whose certified support passes 2,000,000 states raises ``SupportTooLarge``.
    """
    lo, logw, _ = _stationary_scan(kp, tail_tol)
    return DiscreteDistribution.from_log_weights(np.arange(lo, lo + len(logw)), logw)


def _quadratic_roots(a: float, b: float, c: float) -> tuple:
    """Finite real roots of a x^2 + b x + c, ascending; -c/b, unscaled, when a = 0.

    A quadratic is scaled exactly, by a power of two, to a largest coefficient
    below 1, so b^2 cannot overflow, and its roots are q/a and c/q with
    q = -(b + sign(b) sqrt(disc))/2, free of cancellation.  A negative or NaN
    discriminant gives no root, and a root that overflows a double is left
    out (an a that scales to 0 leaves the linear root).
    """
    if a != 0:
        e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    if a == 0:
        roots = (-c / b,) if b != 0 else ()
    else:
        disc = b * b - 4 * a * c
        if not disc >= 0:
            return ()
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        roots = (q / a, c / q if q else 0.0)
    return tuple(sorted(x for x in roots if math.isfinite(x)))


def continuous_extremum_roots(kp: KineticParams) -> tuple:
    """Real solutions of birth_rate(N) = death_rate(N+1) in continuous N, ascending.

    In rate units, b(N) - d(N+1) = -(k_m1/V) N^2 + (k1 A - k_m1/V - k2) N + (k_m2 A V - k2),
    so with k_m1 = 0 the one root is, bit for bit, the negative-binomial mode
    (k_m2 A V - k2)/(k2 - k1 A).  A root that overflows a double is left out.
    """
    k_m1v = kp.k_m1 / kp.volume
    return _quadratic_roots(-k_m1v, kp.k1 * kp.a - k_m1v - kp.k2,
                            kp.k_m2 * kp.a * kp.volume - kp.k2)


def alt_closed_form_roots(kp: KineticParams) -> tuple:
    """Extremum roots per the alternative published closed form.

    Kept for cross-checking: it differs from the self-derived quadratic in
    the sign of the linear term and of the generation term, and is undefined
    for k_m1 = 0: -(k_m1/V) N^2 + (k_m1/V + k2 - k1 A) N - (k_m2 A V + k2) = 0.
    Disagreement raises the discrepancy flag in find_extrema.
    """
    if kp.k_m1 == 0:
        return ()
    k_m1v = kp.k_m1 / kp.volume
    return _quadratic_roots(-k_m1v, k_m1v + kp.k2 - kp.k1 * kp.a,
                            -(kp.k_m2 * kp.a * kp.volume + kp.k2))


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
    lo, _, ratios = _stationary_scan(kp, _TAIL_TOL)
    roots = continuous_extremum_roots(kp)
    alt = alt_closed_form_roots(kp)
    disagree = len(alt) != len(roots) or any(
        abs(x - y) > 1e-9 * max(1.0, abs(x), abs(y)) for x, y in zip(roots, alt))

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

    Returns (k2 - k_m2*A*V) / (k1*A - k2), from :func:`continuous_extremum_roots`.
    The caller must check normalizability (k1*A < k2) for this to be an actual maximum.
    """
    if kp.k_m1 != 0:
        raise DomainError("fast-generation limit requires k_m1 = 0")
    roots = continuous_extremum_roots(kp)
    if not roots:
        raise DegenerateDenominator("k1*A = k2, or the root overflows: formula undefined")
    return roots[0]


def detailed_balance_gap(kp: KineticParams) -> float:
    """Distance between the two reactions' equilibrium fixed points.

    Zero iff both reactions individually balance, in which case the
    stationary law is exactly Poisson with mean (k1*A/k_m1)*V.
    """
    if kp.k_m1 == 0 or kp.k2 == 0:
        raise NotApplicable("detailed-balance gap needs k_m1 > 0 and k2 > 0")
    return abs(kp.k1 * kp.a / kp.k_m1 - kp.k_m2 * kp.a / kp.k2)


def _taylor_degree(x: float) -> int:
    """The lowest degree m whose shifted step, at x = h ||B||_1, is off by at most _TAIL."""
    term, m = x * math.exp(-x), 0   # e^(-x) x^(m+1)/(m+1)!
    while term > _TAIL * (1 - x / (m + 2)):
        m += 1
        term *= x / (m + 1)
    return m


def transient_evolve(kp: KineticParams, initial: DiscreteDistribution, t_grid, n_max: int) -> list:
    """Solve the probability-flow equations p' = Qp on the truncated lattice 0..n_max.

    Q is constant, so a step of length h is p <- e^(hQ) p = e^(-x) e^(hB) p,
    shifted by the top rate Lambda = (b + d)(n_max) (both rates grow with n):
    B = Q + Lambda I has every entry >= 0, its columns sum to at most Lambda,
    and x = h Lambda = h ||B||_1 (uniformization's shift; Jensen, Skand.
    Aktuarietidskr. 36, 87, 1953).  Each step takes a Taylor polynomial of
    e^(hB) of degree m <= 47, evaluated by Horner's rule:
    v <- p + (1/k) hB v for k = m, ..., 1, starting from v = p, with B's three
    diagonals scaled by h once per span, then v <- e^(-x) v.  Every term is
    >= 0, so nothing cancels and no probability turns negative.  Each span is
    cut into the fewest equal steps with x <= 9.9, the Al-Mohy-Higham bound
    for degree 55 at 2^-53 (SIAM J. Sci. Comput. 33, 488, 2011).  The shifted
    step is off by at most e^(-x) sum_{k>m} x^k/k! in the 1-norm, a Poisson(x)
    tail; a span's degree is the lowest whose bound on that tail,
    e^(-x) x^(m+1)/(m+1)! / (1 - x/(m+2)), stays within the Al-Mohy-Higham
    bound at degree 30 and x = 3.54, 1.43e-17, so every step is exact to
    double precision.  A span longer than one step takes steps of
    4.95 < x <= 9.9 and degrees 34 to 47; a shorter span, as on a dense
    output grid, still takes one step, of fewer products (27 at x = 3, 11 at
    x = 0.2, 6 at x = 0.01).

    The upper boundary leaks: mass past n_max is dropped, never reflected.
    Mass above 1e-9 at n_max (``TruncationBreach``) or more than 1e-9 of the
    mass leaked past n_max (``StepFailure``) is an error, not a silent fix; within
    those bounds each returned law is rescaled to sum to 1, so it is the
    leaky law conditioned on no leak, within 1e-9 of the leaky law itself.

    Before any lattice is built, an ``n_max`` past 2,000,000 raises
    ``SupportTooLarge``, and a ``DomainError`` is raised when the laws to
    return, len(t_grid) * (n_max + 1) probabilities, pass _MAX_STORED_STATES,
    when a rate at n_max overflows a double, or when the Taylor products the
    grid needs, times n_max + 1 + _STEP_STATES, pass _MAX_TRANSIENT_WORK.
    """
    t_grid = [float(t) for t in t_grid]
    if not all(0 <= t < math.inf for t in t_grid) or any(
            t2 <= t1 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise DomainError("t_grid must be finite, non-negative and strictly increasing")
    n_max = _integer("n_max", n_max)
    if initial.support[-1] > n_max:
        raise DomainError("initial distribution extends past n_max")
    if n_max > _MAX_SUPPORT:
        raise SupportTooLarge(f"n_max={n_max} lies past {_MAX_SUPPORT} states")
    if len(t_grid) * (n_max + 1) > _MAX_STORED_STATES:
        raise DomainError(f"{len(t_grid)} laws on {n_max + 1} states would store more "
                          f"than {_MAX_STORED_STATES:g} probabilities")

    max_rate = birth_rate(n_max, kp) + death_rate(n_max, kp)
    if max_rate == math.inf:
        raise DomainError(f"the rates overflow a double at n_max={n_max}")
    spans = [t2 - t1 for t1, t2 in zip([0.0, *t_grid], t_grid)]
    # each span's step count, kept a float until the cap is checked (it may be inf),
    # and its degree (a full step's where it takes none, or too many to count);
    # every column of B sums to at most max_rate
    steps = [max(1.0, span * max_rate / _THETA) if span > 0 and max_rate > 0 else 0.0
             for span in spans]
    degrees = [_taylor_degree(span * max_rate / math.ceil(s) if 0 < s < math.inf else _THETA)
               for span, s in zip(spans, steps)]
    products = sum(s * m for s, m in zip(steps, degrees))
    if products * (n_max + 1 + _STEP_STATES) > _MAX_TRANSIENT_WORK:
        raise DomainError(f"t_grid needs {products:.3g} Taylor products on {n_max + 1} states, "
                          f"more work than the cap of {_MAX_TRANSIENT_WORK:g} allows")

    states = np.arange(n_max + 1)
    b = birth_rate(states, kp)
    dr = death_rate(states, kp)
    # B's three diagonals: the top rate less the rate out of each state, inflow
    # from below and from above; each >= 0, as the rates grow with n
    diagonals = (max_rate - (b + dr), b[:-1], dr[1:])

    p = np.zeros(n_max + 1)
    p[initial.support] = initial.probs

    results = []
    for t, span, n_steps, degree in zip(t_grid, spans, map(math.ceil, steps), degrees):
        if n_steps:
            h = span / n_steps
            stay, up, down = (h * x for x in diagonals)
            decay = math.exp(-h * max_rate)
        for _ in range(n_steps):
            v = p
            for k in range(degree, 0, -1):
                # v <- p + (1/k) hB v
                w = stay * v
                w[1:] += up * v[:-1]
                w[:-1] += down * v[1:]
                w *= 1 / k
                w += p
                v = w
            v *= decay
            p = v
        if p[-1] > _BOUNDARY_TOL:
            raise TruncationBreach(
                f"mass {p[-1]:.3e} at n_max={n_max} at t={t}; enlarge the lattice")
        total = p.sum()
        if abs(total - 1.0) > _CONSERVATION_TOL:
            raise StepFailure(f"mass {1.0 - total:.3e} leaked past n_max={n_max} by t={t}; "
                              "enlarge the lattice")
        # the leaked mass, at most 1e-9 by the checks above, is spread back
        # over the lattice: the law is conditioned on not having leaked
        results.append(DiscreteDistribution.from_probs(states, p / total))
    return results
