import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from megstat import (
    DiscreteDistribution,
    KineticParams,
    PhysicalParams,
    ReducedStatParams,
    moments,
    poisson_distribution,
    reduce_params,
    total_variation,
)
from megstat.errors import DomainError, SupportTooLarge

# frozen from a 50-digit mpmath evaluation of the coupling formula with
# m = 0.1 electron masses, gap = 0.8 eV, R = 3.9 nm, CODATA constants
G_PBSE_LIKE = 16.971421119806299


def _dist(mapping):
    support = sorted(mapping)
    return DiscreteDistribution.from_probs(support, [mapping[n] for n in support])


class TestReduceParams:
    def test_unit_cancelling_inputs(self):
        # R chosen so the volume equals 2^{3/2} pi^{3/2}: everything cancels
        radius = (3.0 * 2.0 ** 1.5 * math.pi ** 1.5 / (4.0 * math.pi)) ** (1.0 / 3.0)
        p = PhysicalParams(mass=1, radius=radius, effective_gap=1,
                           photon_energy=1, hbar=1)
        r = reduce_params(p)
        assert r.coupling == pytest.approx(1.0, rel=1e-12)
        assert r.energy_ratio == pytest.approx(1.0)

    def test_energy_ratio_is_photon_over_gap(self):
        p = PhysicalParams(mass=2.0, radius=1.3, effective_gap=0.8,
                           photon_energy=0.8 * 3.63, hbar=1.0)
        assert reduce_params(p).energy_ratio == pytest.approx(3.63, rel=1e-14)

    def test_si_inputs_match_high_precision_oracle(self):
        m_e = 9.1093837015e-31
        eV = 1.602176634e-19
        p = PhysicalParams(mass=0.1 * m_e, radius=3.9e-9, effective_gap=0.8 * eV,
                           photon_energy=3.63 * 0.8 * eV, hbar=1.054571817e-34)
        assert reduce_params(p).coupling == pytest.approx(G_PBSE_LIKE, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(mass=0), dict(radius=-1), dict(effective_gap=0),
        dict(photon_energy=0.5),  # below the gap
    ])
    def test_invalid_inputs(self, bad):
        kw = dict(mass=1, radius=1, effective_gap=1, photon_energy=2, hbar=1)
        kw.update(bad)
        with pytest.raises(DomainError):
            PhysicalParams(**kw)

    def test_oversized_radius_is_a_domain_error(self):
        # radius ** 3 overflows a double
        p = PhysicalParams(mass=1, radius=1e200, effective_gap=1, photon_energy=2)
        with pytest.raises(DomainError, match="radius"):
            p.volume
        with pytest.raises(DomainError, match="radius"):
            reduce_params(p)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("kw", [
        dict(coupling=math.inf, energy_ratio=3.63),
        dict(coupling=math.nan, energy_ratio=3.63),
        dict(coupling=1.0, energy_ratio=math.inf),
        dict(coupling=1.0, energy_ratio=math.nan),
    ])
    def test_reduced_stat_params(self, kw):
        with pytest.raises(DomainError):
            ReducedStatParams(**kw)

    @pytest.mark.parametrize("name", ["k1", "k_m1", "k2", "k_m2", "a", "volume"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_kinetic_params(self, name, value):
        kw = dict(k1=1.0, k_m1=0.5, k2=1.0, k_m2=2.0, a=1.0, volume=1.0)
        kw[name] = value
        with pytest.raises(DomainError):
            KineticParams(**kw)

    @pytest.mark.parametrize("probs", [
        [math.nan, math.nan], [math.nan, 1.0], [0.5, math.inf],
    ])
    def test_discrete_distribution(self, probs):
        with pytest.raises(DomainError):
            DiscreteDistribution.from_probs([0, 1], probs)

    @pytest.mark.parametrize("probs", [[-1.0, 1.0], [-math.inf, 1.0]])
    def test_negative_probability_raises_without_a_warning(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                DiscreteDistribution.from_probs([0, 1], probs)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_poisson_distribution(self, lam):
        with pytest.raises(DomainError):
            poisson_distribution(lam)

    @pytest.mark.parametrize("lam", [1.98e6, 1e12])
    def test_poisson_past_the_support_cap(self, lam):
        # its cutoff lam + 20 sqrt(lam) + 40 passes 2,000,000 states
        with pytest.raises(SupportTooLarge):
            poisson_distribution(lam)

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, 2.0, math.nan])
    def test_poisson_rejects_tail_tol_outside_its_range(self, tail_tol):
        with pytest.raises(DomainError):
            poisson_distribution(5.0, tail_tol=tail_tol)

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    def test_poisson_drops_less_than_tail_tol(self, lam):
        # P(X >= k) is the regularized lower incomplete gamma function P(k, lam)
        k = len(poisson_distribution(lam, tail_tol=1e-15).support)
        assert mpmath.gammainc(k, 0, lam, regularized=True) < 1e-15
        # and the cut is the first state that meets it
        assert mpmath.gammainc(k - 1, 0, lam, regularized=True) > 0.9e-15

    def test_poisson_at_zero_is_a_point_mass(self):
        d = poisson_distribution(0.0)
        assert d.support.tolist() == [0] and d.probs.tolist() == [1.0]


class TestDiscreteDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(np.array([0, 1]), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("support, probs", [([[0, 1]], [[0.5, 0.5]]),   # 2-d
                                                ([0, 1], [1.0]),            # incongruent
                                                ([], [])])
    def test_rejects_bad_shapes(self, support, probs):
        with pytest.raises(DomainError):
            DiscreteDistribution.from_probs(support, probs)

    def test_rejects_unsorted_support(self):
        with pytest.raises(DomainError):
            DiscreteDistribution.from_probs([2, 1], [0.5, 0.5])

    def test_from_log_weights_handles_huge_range(self):
        # weights spanning hundreds of orders of magnitude must normalize
        d = DiscreteDistribution.from_log_weights([0, 1, 2], [-900.0, 0.0, -800.0])
        assert d.probs[1] == pytest.approx(1.0)
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_prob_lookup(self):
        d = _dist({1: 0.25, 4: 0.75})
        assert d.prob(4) == 0.75
        assert d.prob(2) == 0.0


class TestTotalVariation:
    def test_identity(self):
        d = _dist({0: 0.5, 1: 0.5})
        assert total_variation(d, d) == 0.0

    def test_disjoint_supports(self):
        assert total_variation(_dist({0: 1.0}), _dist({1: 1.0})) == 1.0

    def test_direct_sum(self):
        assert total_variation(_dist({0: 0.5, 1: 0.5}), _dist({0: 1.0})) == \
            pytest.approx(0.5)


@st.composite
def distributions(draw):
    size = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(0, 30), min_size=size, max_size=size,
                            unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size))
    probs = np.array(weights) / np.sum(weights)
    return DiscreteDistribution.from_probs(sorted(support),
                                           probs[np.argsort(support)])


@given(distributions(), distributions(), distributions())
def test_total_variation_is_a_metric(a, b, c):
    tab = total_variation(a, b)
    assert 0.0 <= tab <= 1.0 + 1e-12
    assert tab == pytest.approx(total_variation(b, a), abs=1e-15)
    assert tab <= total_variation(a, c) + total_variation(c, b) + 1e-12


class TestMoments:
    def test_point_mass(self):
        m = moments(_dist({2: 1.0}))
        assert m.mean == 2.0
        assert m.variance == 0.0
        assert m.poisson_deviation == pytest.approx(2.0)
        assert m.exciton_yield == 1.0

    def test_poisson_criterion_by_construction(self):
        m = moments(poisson_distribution(3.0, tail_tol=1e-14))
        assert abs(m.poisson_deviation) < 1e-9
        assert m.fano_factor == pytest.approx(1.0, abs=1e-9)

    def test_two_point(self):
        m = moments(_dist({2: 0.5, 4: 0.5}))
        assert m.mean == 3.0
        assert m.second_moment == 10.0
        assert m.variance == pytest.approx(1.0)


@given(distributions())
def test_moment_identity(d):
    # deviation = mean - variance, algebraically
    m = moments(d)
    scale = max(1.0, abs(m.poisson_deviation))
    assert abs(m.poisson_deviation - (m.mean - m.variance)) < 1e-12 * scale
