"""Tests of the benchmark's oracles against textbook identities, never against megstat.

    python3 -m pytest -q perfbench/oracle_tests.py
"""

import math

import numpy as np
import pytest
from scipy import stats

import oracles

DETAILED_BALANCE = dict(k1A=1.5, km1=0.5, k2=0.8, km2AV=2.4 * 7.0, V=7.0)   # xbar = 3
NO_IMPACT = dict(k1A=0.6, km1=0.0, k2=1.5, km2AV=4.0, V=2.0)
IMMIGRATION_DEATH = dict(k1A=0.0, km1=0.0, k2=0.7, km2AV=2.1, V=1.0)          # lam = 3
GENERIC = dict(k1A=5.0, km1=0.3, k2=2.0, km2AV=0.1, V=1.0)


@pytest.mark.parametrize("lam", [0.3, 4.0, 250.0])
def test_poisson_pmf_is_scipys_and_has_mean_and_variance_lam(lam):
    n = np.arange(int(lam + 40 * math.sqrt(lam) + 40))
    p = oracles.poisson_pmf(n, lam)
    np.testing.assert_allclose(p, stats.poisson.pmf(n, lam), rtol=1e-10, atol=1e-300)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert n @ p == pytest.approx(lam, rel=1e-12)
    assert (n - lam) ** 2 @ p == pytest.approx(lam, rel=1e-10)


@pytest.mark.parametrize("r, rho", [(0.5, 0.3), (12.0, 0.8), (300.0, 0.05)])
def test_nbinom_pmf_is_scipys_with_success_probability_one_minus_rho(r, rho):
    n = np.arange(4000)
    p = oracles.nbinom_pmf(n, r, rho)
    np.testing.assert_allclose(p, stats.nbinom.pmf(n, r, 1 - rho), rtol=1e-9, atol=1e-300)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert n @ p == pytest.approx(r * rho / (1 - rho), rel=1e-10)


def test_nbinom_tends_to_poisson_as_rho_vanishes_at_fixed_mean():
    lam, n = 3.0, np.arange(60)
    gaps = []
    for rho in (1e-2, 1e-4, 1e-6):
        r = lam * (1 - rho) / rho
        gaps.append(oracles.total_variation(oracles.nbinom_pmf(n, r, rho),
                                            oracles.poisson_pmf(n, lam)))
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-5


def test_product_law_with_detailed_balance_is_poisson():
    lam = DETAILED_BALANCE["k1A"] / DETAILED_BALANCE["km1"] * DETAILED_BALANCE["V"]
    p = oracles.product_law(DETAILED_BALANCE, 120)
    assert oracles.total_variation(p, oracles.poisson_pmf(np.arange(121), lam)) < 1e-12


def test_product_law_without_impact_recombination_is_negative_binomial():
    rho = NO_IMPACT["k1A"] / NO_IMPACT["k2"]
    r = NO_IMPACT["km2AV"] / NO_IMPACT["k1A"]
    p = oracles.product_law(NO_IMPACT, 200)
    np.testing.assert_allclose(p, oracles.nbinom_pmf(np.arange(201), r, rho), rtol=1e-9)


@pytest.mark.parametrize("rates", [DETAILED_BALANCE, NO_IMPACT, GENERIC])
def test_product_law_carries_no_net_flux(rates):
    p = oracles.product_law(rates, 80)
    assert np.max(np.abs(oracles.net_flux(p, rates))) < 1e-12


def test_net_flux_sees_a_law_that_is_not_stationary():
    p = oracles.poisson_pmf(np.arange(40), 5.0)    # ID's law is Poisson(3), not 5
    assert np.max(np.abs(oracles.net_flux(p, IMMIGRATION_DEATH))) > 0.1


def test_generic_example_is_bimodal_with_a_mode_at_zero():
    logw = oracles.product_log_weights(GENERIC, 60)
    maxima = oracles.local_maxima(logw)
    assert len(maxima) == 2 and maxima[0] == 0


def test_local_maxima_report_ties_and_skip_the_top_state():
    assert oracles.local_maxima(np.array([3.0, 1.0, 2.0, 2.0, 1.0])) == [0, 2, 3]
    assert oracles.local_maxima(np.array([1.0, 2.0, 3.0])) == []


@pytest.mark.parametrize("rates", [IMMIGRATION_DEATH, GENERIC, NO_IMPACT])
def test_generator_columns_sum_to_minus_the_leak(rates):
    n_max = 25
    q = oracles.leaky_generator(rates, n_max)
    sums = q.sum(axis=0)
    np.testing.assert_allclose(sums[:-1], 0.0, atol=1e-12)
    assert sums[-1] == pytest.approx(-oracles.birth(n_max, rates))
    off = q - np.diag(np.diag(q))
    assert np.all(off >= 0)


def test_immigration_death_evolves_as_a_growing_poisson():
    rates, n_max = IMMIGRATION_DEATH, 60
    times = [0.1, 1.0, 5.0]
    p0 = np.eye(n_max + 1)[0]
    lam = rates["km2AV"] / rates["k2"]
    for t, p in zip(times, oracles.evolve(oracles.leaky_generator(rates, n_max), p0, times)):
        ref = oracles.poisson_pmf(np.arange(n_max + 1), lam * -math.expm1(-rates["k2"] * t))
        assert np.max(np.abs(p - ref)) < 1e-13


def test_relaxation_time_of_immigration_death_is_one_over_k2():
    q = oracles.leaky_generator(IMMIGRATION_DEATH, 60)
    assert oracles.relaxation_time(q) == pytest.approx(1 / IMMIGRATION_DEATH["k2"], rel=1e-9)


def test_multiplicity_law_single_channel_and_two_channel_ratio():
    support, p = oracles.multiplicity_law(1.7, 3.0)
    assert support.tolist() == [2] and p.tolist() == [1.0]
    eps, g = 2.6, 1.3
    support, p = oracles.multiplicity_law(eps, g)
    assert support.tolist() == [2, 4]
    # w(n) = g^n (eps - n/2)^(3n/2 - 1) / Gamma(3n/2)
    w2 = g ** 2 * (eps - 1) ** 2 / math.gamma(3)
    w4 = g ** 4 * (eps - 2) ** 5 / math.gamma(6)
    assert p[1] / p[0] == pytest.approx(w4 / w2, rel=1e-13)


def test_multiplicity_law_closes_channels_at_the_photon_energy():
    support, _ = oracles.multiplicity_law(4.0, 1.0)    # n/2 = 4 leaves no residual energy
    assert support.tolist() == [2, 4, 6]
    support, _ = oracles.multiplicity_law(4.01, 1.0)
    assert support.tolist() == [2, 4, 6, 8]


def test_total_variation_bounds():
    p = np.array([0.5, 0.5])
    assert oracles.total_variation(p, p) == 0.0
    assert oracles.total_variation(np.array([1.0]), np.array([0.0, 1.0])) == 1.0
