"""Shared domain types: parameter blocks, discrete distributions, moments.

All downstream math runs on dimensionless reduced parameters; dimensional
inputs enter only through :func:`reduce_params`.  Distributions built from
log-mass are normalized in log space, because the statistical weights span
hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportTooLarge

_NORM_TOL = 1e-12
_MAX_SUPPORT = 2_000_000   # the most states any law is built on


def _integer(name: str, value) -> int:
    """``value`` as an int; a ``DomainError`` unless it is an int or a numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional quantum-dot and photon inputs (any consistent unit system)."""

    mass: float                # carrier (electron/hole) mass
    radius: float              # dot radius
    effective_gap: float       # gap corrected for exciton binding energy
    photon_energy: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "radius", "effective_gap", "photon_energy", "hbar"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")
        if self.photon_energy < self.effective_gap:
            raise DomainError(
                "photon_energy must be >= effective_gap (no exciton channel otherwise)")

    @property
    def volume(self) -> float:
        try:
            return 4.0 * math.pi * self.radius ** 3 / 3.0
        except OverflowError:   # radius ** 3 passes the largest double
            raise DomainError(f"radius {self.radius!r} overflows the volume") from None


@dataclass(frozen=True)
class ReducedStatParams:
    """The two dimensionless numbers that fully determine the multiplicity law."""

    coupling: float      # g
    energy_ratio: float  # photon energy / effective gap

    def __post_init__(self):
        if not (self.coupling > 0 and math.isfinite(self.coupling)):
            raise DomainError("coupling must be finite and strictly positive")
        if not (self.energy_ratio >= 1 and math.isfinite(self.energy_ratio)):
            raise DomainError("energy_ratio must be finite and >= 1")


def reduce_params(p: PhysicalParams) -> ReducedStatParams:
    """Collapse dimensional inputs to the reduced pair (coupling, energy ratio)."""
    g = (p.mass * p.effective_gap) ** 1.5 * p.volume \
        / (2.0 ** 1.5 * math.pi ** 1.5 * p.hbar ** 3)
    return ReducedStatParams(coupling=g, energy_ratio=p.photon_energy / p.effective_gap)


@dataclass(frozen=True)
class KineticParams:
    """Rate constants for the birth-death exciton kinetics.

    k1:   autocatalytic generation, A + X -> 2X
    k_m1: impact recombination, 2X -> A + X
    k2:   single-exciton annihilation, X ->
    k_m2: single-exciton generation, -> X
    a:    valence-electron concentration (constant reservoir, never depleted)
    volume: dot volume
    """

    k1: float
    k_m1: float
    k2: float
    k_m2: float
    a: float
    volume: float

    def __post_init__(self):
        for name in ("k1", "k_m1", "k2", "k_m2", "a"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and non-negative")
        if not (self.volume > 0 and math.isfinite(self.volume)):
            raise DomainError("volume must be finite and strictly positive")


def normalize_log_weights(logw: np.ndarray) -> np.ndarray:
    """Probabilities proportional to exp(logw), for log-mass of any range.

    The whole log normalizer is subtracted before the one ``exp``, so each
    probability is rounded once, subnormal tail entries included; dividing
    max-shifted weights by their sum would round those twice.
    """
    top = np.max(logw)
    probs = np.exp(logw - (top + np.log(np.sum(np.exp(logw - top)))))
    probs /= probs.sum()
    return probs


@dataclass(frozen=True)
class DiscreteDistribution:
    """Normalized probability mass on an ordered set of non-negative integers."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.ndim != 1 or support.shape != probs.shape:
            raise DomainError("support and probs must be 1-d and congruent")
        if len(support) == 0:
            raise DomainError("empty support")
        if np.any(support < 0) or np.any(np.diff(support) <= 0):
            raise DomainError("support must be strictly increasing non-negative integers")
        # written so that NaN fails each test
        if not (probs >= 0).all():
            raise DomainError("negative or NaN probability")
        total = probs.sum()
        if not abs(total - 1.0) <= _NORM_TOL:
            raise DomainError(f"probabilities sum to {float(total)!r}, not 1")

    @classmethod
    def from_log_weights(cls, support, log_weights) -> "DiscreteDistribution":
        """Normalize unnormalized log-mass via log-sum-exp."""
        return cls(support, normalize_log_weights(np.asarray(log_weights, dtype=float)))

    @classmethod
    def from_probs(cls, support, probs) -> "DiscreteDistribution":
        return cls(support, probs)

    def prob(self, n: int) -> float:
        """Probability at integer n (0 off support)."""
        idx = np.searchsorted(self.support, n)
        if idx < len(self.support) and self.support[idx] == n:
            return float(self.probs[idx])
        return 0.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    second_moment: float
    variance: float
    fano_factor: float
    poisson_deviation: float   # mean^2 + mean - second_moment; 0 iff Poissonian
    exciton_yield: float       # mean/2 (each exciton is an electron-hole pair)


@dataclass(frozen=True)
class ExtremaReport:
    """Extremum structure of a stationary birth-death law."""

    continuous_roots: tuple = ()        # real roots of the self-derived quadratic
    integer_maxima: tuple = ()
    integer_minima: tuple = ()
    is_bimodal: bool = False
    alt_closed_form_roots: tuple = ()   # roots per the alternative published quadratic
    discrepancy_flag: bool = False      # set when the two root sets disagree


def moments(d: DiscreteDistribution) -> MomentSummary:
    """First and second moments plus the Poissonian-deviation diagnostics."""
    n = d.support.astype(float)
    mean = float(np.dot(n, d.probs))
    second = float(np.dot(n * n, d.probs))
    variance = max(second - mean * mean, 0.0)
    fano = variance / mean if mean > 0 else math.nan
    return MomentSummary(
        mean=mean,
        second_moment=second,
        variance=variance,
        fano_factor=fano,
        poisson_deviation=mean * mean + mean - second,
        exciton_yield=mean / 2.0,
    )


def total_variation(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """Half the L1 distance over the union support (missing points are 0)."""
    support = np.union1d(a.support, b.support)
    pa = np.zeros(len(support))
    pb = np.zeros(len(support))
    pa[np.searchsorted(support, a.support)] = a.probs
    pb[np.searchsorted(support, b.support)] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


def poisson_distribution(lam: float, tail_tol: float = 1e-15) -> DiscreteDistribution:
    """Poisson(lam) truncated where the remaining tail mass drops below tail_tol.

    ``tail_tol`` must lie in (0, 1e-3].  Raises ``SupportTooLarge`` when the
    cutoff it starts from passes 2,000,000 states (lam above about 1.97e6).
    """
    if not (lam >= 0 and math.isfinite(lam)):
        raise DomainError("lam must be finite and non-negative")
    if not 0 < tail_tol <= 1e-3:
        raise DomainError("tail_tol must lie in (0, 1e-3]")
    if lam == 0:
        return DiscreteDistribution.from_probs([0], [1.0])
    # crude but safe upper cutoff, then trim by the exact tail sum
    n_max = int(lam + 20 * math.sqrt(lam) + 40)
    if n_max >= _MAX_SUPPORT:
        raise SupportTooLarge(f"Poisson({lam:g}) needs more than {_MAX_SUPPORT} states")
    n = np.arange(n_max + 1)
    logp = n * math.log(lam) - lam - np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    # the mass at k and above, summed from the far end (1 - cumsum(p) loses it
    # to rounding); keep 0..k-1 for the first k where it is below tail_tol
    tail = np.cumsum(np.exp(logp)[::-1])[::-1]
    keep = np.searchsorted(tail < tail_tol, True)
    n, logp = n[:keep], logp[:keep]
    return DiscreteDistribution.from_log_weights(n, logp)
