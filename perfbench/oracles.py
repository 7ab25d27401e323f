"""Reference computations the benchmark checks megstat's outputs against.

Everything here is written from the model's formulas alone and never calls
megstat, so a fault in the package cannot hide in its own check.  Rates use
the CLI's natural groups: birth b(n) = k1A*n + km2AV and death
d(n) = km1*n*(n-1)/V + k2*n.
"""

from __future__ import annotations

import math

import numpy as np


def multiplicity_law(eps: float, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Even carrier counts n >= 2 with eps - n/2 > 0 and their probabilities.

    ln w(n) = n ln g + (3n/2 - 1) ln(eps - n/2) - ln Gamma(3n/2), normalized.
    """
    support = [n for n in range(2, int(2 * eps) + 2, 2) if eps - n / 2 > 0]
    logw = [n * math.log(g) + (1.5 * n - 1) * math.log(eps - n / 2) - math.lgamma(1.5 * n)
            for n in support]
    return np.array(support), normalize_log(np.array(logw))


def normalize_log(logw: np.ndarray) -> np.ndarray:
    """Probabilities from unnormalized log weights (max-shifted, so no overflow)."""
    w = np.exp(logw - np.max(logw))
    return w / w.sum()


def poisson_pmf(n: np.ndarray, lam: float) -> np.ndarray:
    n = np.asarray(n)
    if lam == 0:
        return (n == 0).astype(float)
    return np.exp(n * math.log(lam) - lam - _lgamma(n + 1))


def nbinom_pmf(n: np.ndarray, r: float, rho: float) -> np.ndarray:
    """Negative binomial: Gamma(n+r)/(Gamma(r) n!) (1-rho)^r rho^n."""
    n = np.asarray(n)
    return np.exp(_lgamma(n + r) - math.lgamma(r) - _lgamma(n + 1)
                  + r * math.log1p(-rho) + n * math.log(rho))


def _lgamma(x) -> np.ndarray:
    return np.array([math.lgamma(v) for v in np.ravel(x)]).reshape(np.shape(x))


def birth(n: np.ndarray, rates: dict) -> np.ndarray:
    return rates["k1A"] * np.asarray(n, dtype=float) + rates["km2AV"]


def death(n: np.ndarray, rates: dict) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return rates["km1"] * n * (n - 1) / rates["V"] + rates["k2"] * n


def product_log_weights(rates: dict, n_max: int) -> np.ndarray:
    """log P(n) - log P(0) on 0..n_max: the running sum of log b(n) - log d(n+1)."""
    n = np.arange(n_max)
    return np.concatenate([[0.0], np.cumsum(np.log(birth(n, rates)) - np.log(death(n + 1, rates)))])


def product_law(rates: dict, n_max: int) -> np.ndarray:
    """Stationary law on 0..n_max from the product of b(n)/d(n+1), normalized there."""
    return normalize_log(product_log_weights(rates, n_max))


def net_flux(p: np.ndarray, rates: dict) -> np.ndarray:
    """Net probability flow n -> n+1 of a law p on 0..len(p)-1, relative to the gross flow.

    A stationary birth-death law has zero net flow across every edge.
    """
    n = np.arange(len(p) - 1)
    up = p[:-1] * birth(n, rates)
    down = p[1:] * death(n + 1, rates)
    return (up - down) / np.maximum(up + down, np.finfo(float).tiny)


def local_maxima(w: np.ndarray) -> list[int]:
    """States n below the last with w(n) >= both neighbours (n = 0 has only the right one).

    ``w`` may be probabilities or log weights; the truncated top state is never reported.
    """
    left = np.concatenate([[True], w[1:] >= w[:-1]])
    right = np.concatenate([w[:-1] >= w[1:], [False]])
    return [int(i) for i in np.nonzero(left & right)[0]]


def leaky_generator(rates: dict, n_max: int) -> np.ndarray:
    """Master-equation generator on 0..n_max; births out of n_max leave the lattice.

    Column n holds the rates out of state n, so every column sums to zero
    except the last, which sums to minus the leak rate b(n_max).
    """
    n = np.arange(n_max + 1)
    b, d = birth(n, rates), death(n, rates)
    q = np.diag(-(b + d)) + np.diag(b[:-1], -1) + np.diag(d[1:], 1)
    return q


def evolve(q: np.ndarray, p0: np.ndarray, times) -> list[np.ndarray]:
    """p(t) = expm(Q t) p0 at each time."""
    from scipy.linalg import expm  # only checks need it; keeps it out of set-up time

    return [expm(q * t) @ p0 for t in times]


def relaxation_time(q: np.ndarray) -> float:
    """Inverse spectral gap: 1/|second-largest real part| of the generator's eigenvalues."""
    ev = np.sort(np.linalg.eigvals(q).real)[::-1]
    return 1.0 / -ev[1]


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance of two laws on 0..len-1 (the shorter is zero-padded)."""
    m = max(len(p), len(q))
    return 0.5 * float(np.abs(np.pad(p, (0, m - len(p))) - np.pad(q, (0, m - len(q)))).sum())
