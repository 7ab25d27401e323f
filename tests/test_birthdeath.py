import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from megstat import (
    DiscreteDistribution,
    KineticParams,
    birth_rate,
    death_rate,
    detailed_balance_gap,
    fast_meg_limit_root,
    find_extrema,
    moments,
    poisson_distribution,
    stationary_distribution,
    step_ratio,
    total_variation,
    transient_evolve,
)
from megstat import birthdeath, ssa
from megstat.birthdeath import _quadratic_roots, continuous_extremum_roots, stationary_weights_exact
from megstat.core import _MAX_SUPPORT
from megstat.errors import (
    DegenerateDenominator,
    DomainError,
    MegstatError,
    NonNormalizable,
    NotApplicable,
    SupportTooLarge,
    TruncationBreach,
)

# reference bimodal regime: slow generation out of the empty state, strong
# autocatalysis, quadratic recombination
BIMODAL = KineticParams(k1=5, k_m1=0.3, k2=2, k_m2=0.1, a=1, volume=1)
IMMIGRATION_DEATH = KineticParams(k1=0, k_m1=0, k2=1, k_m2=3, a=1, volume=1)
DETAILED_BALANCE = KineticParams(k1=1, k_m1=0.5, k2=1, k_m2=2, a=1, volume=1)
FAST_LIMIT = KineticParams(k1=0.5, k_m1=0, k2=1, k_m2=2, a=1, volume=1)
# detailed balance at xbar = 2, V = 1000: Poisson(2000), cut in the scan's third chunk
POISSON_2000 = KineticParams(k1=1, k_m1=0.5, k2=1, k_m2=2, a=1, volume=1000)


def upper_root_law(root):
    """A k_m1 > 0 law whose ratio b(n)/d(n+1) is at least 1 on [0, root]."""
    # b(n) - d(n+1) = (1 - k_m1 (n + 1)) n: roots 0 and 1/k_m1 - 1
    return KineticParams(k1=2, k_m1=1 / (root + 1), k2=1, k_m2=1, a=1, volume=1)


def certified_cut(kp, tail_tol=1e-12):
    """Last state of the stationary law by the tail certificate, one state at a time."""
    limit_ratio = kp.k1 * kp.a / kp.k2 if kp.k_m1 == 0 else 0.0
    logw = log_total = 0.0
    n = 0
    while True:
        r, r_next = step_ratio(n, kp), step_ratio(n + 1, kp)
        logw += math.log(r)
        log_total = float(np.logaddexp(log_total, logw))
        n += 1
        if r < 1.0 and (kp.k_m1 == 0 or r_next <= r):
            rho = max(r, limit_ratio)
            if rho < 1.0 and logw + math.log(rho / (1.0 - rho)) < math.log(tail_tol) + log_total:
                return n


def extrema_from_weights(w):
    """Maxima and minima of exact weights w[0..N+1] over the states 0..N."""
    maxima, minima = [], []
    for n in range(len(w) - 1):
        if (n == 0 or w[n] >= w[n - 1]) and w[n] >= w[n + 1]:
            maxima.append(n)
        elif n > 0 and w[n] <= w[n - 1] and w[n] <= w[n + 1]:
            minima.append(n)
    return tuple(maxima), tuple(minima)


def random_dyadic_chains(count, seed):
    """Normalizable chains with dyadic rates, so that each float rate is exact."""
    rng = np.random.default_rng(seed)
    chains = []
    while len(chains) < count:
        k1, k_m1, k_m2 = rng.integers(0, 25, size=3) / 4
        k2 = rng.integers(1, 9) / 4
        if k_m1 == 0 and k1 >= k2:
            continue
        chains.append(KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2 / 8,
                                    a=1, volume=float(rng.choice([1, 2, 4]))))
    return chains


class TestRates:
    def test_birth_at_empty_state(self):
        kp = KineticParams(k1=9, k_m1=1, k2=1, k_m2=2, a=3, volume=0.5)
        assert birth_rate(0, kp) == kp.k_m2 * kp.a * kp.volume
        # an array of states gives the scalar rates, bit for bit
        n = np.arange(60)
        for rate in (birth_rate, death_rate):
            assert rate(n, kp).tolist() == [rate(int(k), kp) for k in n]

    @pytest.mark.parametrize("rate", [birth_rate, death_rate])
    @pytest.mark.parametrize("n", [-1, np.array([0, 3, -1])])
    def test_negative_state_rejected(self, rate, n):
        with pytest.raises(DomainError):
            rate(n, BIMODAL)

    @pytest.mark.parametrize("volume", [0.5, 0.3])
    def test_ssa_total_rate_is_birth_plus_death(self, volume):
        # at V = 0.3, k_m1/V*n*(n-1) and k_m1*n*(n-1)/V round differently.  A
        # one-event walk from n waits -log1p(-u)/total(n), where u is the
        # stream's second uniform, so the waits show the rates it used
        kp = KineticParams(k1=0.7, k_m1=1.3, k2=0.9, k_m2=2, a=1.1, volume=volume)
        n = np.arange(70)
        u = np.random.Generator(np.random.PCG64(7)).random(2)
        waits = [ssa.simulate_trajectory(kp, n_init=int(k), seed=7, max_events=1).event_times[0]
                 for k in n]
        assert waits == (-np.log1p(-u[1]) / (birth_rate(n, kp) + death_rate(n, kp))).tolist()

    def test_birth_substitution(self):
        kp = KineticParams(k1=0.5, k_m1=0, k2=0, k_m2=2, a=1, volume=1)
        assert birth_rate(1, kp) == pytest.approx(2.5)

    def test_birth_substitution_large(self):
        kp = KineticParams(k1=5, k_m1=0, k2=0, k_m2=0.1, a=1, volume=1)
        assert birth_rate(9, kp) == pytest.approx(45.1)

    def test_death_at_empty_state(self):
        assert death_rate(0, BIMODAL) == 0.0

    def test_death_substitution(self):
        kp = KineticParams(k1=0, k_m1=0.3, k2=2, k_m2=0, a=1, volume=1)
        assert death_rate(2, kp) == pytest.approx(4.6)

    def test_pair_term_vanishes_at_one(self):
        kp = KineticParams(k1=0, k_m1=123.0, k2=1, k_m2=0, a=1, volume=1)
        assert death_rate(1, kp) == pytest.approx(1.0)


class TestStationaryDistribution:
    def test_immigration_death_is_poisson(self):
        d = stationary_distribution(IMMIGRATION_DEATH)
        assert total_variation(d, poisson_distribution(3.0)) < 1e-10

    def test_detailed_balance_collapses_to_poisson(self):
        # k1*A/k_m1 = k_m2*A/k2 = 2, so the ratio reduces to 2V/(n+1)
        d = stationary_distribution(DETAILED_BALANCE)
        assert total_variation(d, poisson_distribution(2.0)) < 1e-10

    def test_bimodal_regime(self):
        d = stationary_distribution(BIMODAL)
        p = {int(n): float(pr) for n, pr in zip(d.support, d.probs)}
        assert p[0] > p[1]          # local maximum at the empty state
        assert p[9] > p[8] and p[9] > p[10]

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            stationary_distribution(
                KineticParams(k1=2, k_m1=0, k2=1, k_m2=0.5, a=1, volume=1))

    def test_near_critical_linear_law_is_too_large_up_front(self):
        # NegBin(r = 1, rho = 1 - 1e-6) is normalizable, but its mean is ~1e6
        # and its 1e-12 tail needs ~2.8e7 states; a 2,000,000-state scan takes ~0.2 s
        kp = KineticParams(k1=1 - 1e-6, k_m1=0, k2=1, k_m2=1, a=1, volume=1)
        start = time.perf_counter()
        with pytest.raises(SupportTooLarge):
            stationary_distribution(kp)
        assert time.perf_counter() - start < 0.05
        with pytest.raises(SupportTooLarge):
            find_extrema(kp)

    @pytest.mark.parametrize("kp", [
        # NegBin(r = 2e15, rho = 1e-9), mean ~2e6: past r = 1e12, where the
        # negative-binomial bound is not evaluated
        KineticParams(k1=1e-9, k_m1=0, k2=1, k_m2=2e6, a=1, volume=1),
        # Poisson(2.1e6): its mode lies past every cut the scan tests
        KineticParams(k1=0, k_m1=0, k2=1, k_m2=2.1e6, a=1, volume=1),
    ])
    def test_large_mean_linear_law_is_too_large_up_front(self, kp):
        start = time.perf_counter()
        with pytest.raises(SupportTooLarge):
            stationary_distribution(kp)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("kp", [
        KineticParams(k1=1, k_m1=1e-7, k2=0.5, k_m2=1, a=1, volume=1),   # upper root 5e6
        upper_root_law(_MAX_SUPPORT + 3),
    ])
    def test_upper_root_past_the_cap_is_too_large_up_front(self, kp, monkeypatch):
        def no_chunk(*args):
            raise AssertionError("the scan built a chunk")

        monkeypatch.setattr(birthdeath, "death_rate", no_chunk)
        with pytest.raises(SupportTooLarge, match="upper extremum root"):
            stationary_distribution(kp)
        with pytest.raises(SupportTooLarge, match="upper extremum root"):
            find_extrema(kp)

    def test_upper_root_under_the_margin_is_left_to_the_scan(self, monkeypatch):
        chunks = []

        def counted(n, kp):
            chunks.append(len(n))
            return death_rate(n, kp)

        monkeypatch.setattr(birthdeath, "death_rate", counted)
        with pytest.raises(SupportTooLarge, match="support exceeded"):
            stationary_distribution(upper_root_law(_MAX_SUPPORT + 1))
        assert sum(chunks) > _MAX_SUPPORT

    @pytest.mark.parametrize("kp", [
        # the upper root ~1e616 overflows and is left out, so one root, 0, is left
        KineticParams(k1=1e308, k_m1=1e-308, k2=1, k_m2=1, a=1, volume=1),
        # k_m1/V underflows to 0, so the quadratic turns linear, with its root at -1e300
        KineticParams(k1=1, k_m1=5e-324, k2=0, k_m2=1, a=1, volume=1e300),
    ], ids=["upper-root-overflows", "k_m1-over-V-underflows"])
    def test_lost_upper_root_is_too_large_up_front(self, kp, no_lattice):
        assert len(continuous_extremum_roots(kp)) == 1
        for route in (stationary_distribution, find_extrema):
            with pytest.raises(SupportTooLarge, match="root is lost"):
                route(kp)

    @pytest.mark.parametrize("kp, support", [
        # two roots, -0.99999 and ~1e-308; d(2) overflows, and r(1) = 5e-6 comes
        # from the rates scaled by a power of two, so the scan cuts at 3
        (KineticParams(k1=1e303, k_m1=1e308, k2=0, k_m2=1, a=1, volume=1), [1, 2, 3]),
        # k_m1 = 0: the one root is the mode, -2, and rho = 1/2
        (KineticParams(k1=1e303, k_m1=0, k2=2e303, k_m2=1, a=1, volume=1), [0, 1]),
    ], ids=["two-roots", "k_m1-zero"])
    def test_rates_past_every_double_at_the_cap_are_left_to_the_scan(self, kp, support):
        # b(m) >= d(m + 1) holds as inf >= inf, which is no sign of a lost root
        m = _MAX_SUPPORT + 2
        assert birth_rate(m, kp) == death_rate(m + 1, kp) == math.inf
        assert stationary_distribution(kp).support.tolist() == support

    def test_rates_near_the_largest_double_keep_their_ratios(self):
        # Poisson(1) with b = 1e308 and d(n) = 1e308 n: d(2) overflows, but the
        # ratios 1/(n + 1) are those of the chain with both constants 1
        huge = stationary_distribution(KineticParams(k1=0, k_m1=0, k2=1e308, k_m2=1e308, a=1, volume=1))
        unit = stationary_distribution(KineticParams(k1=0, k_m1=0, k2=1, k_m2=1, a=1, volume=1))
        assert huge.support.tolist() == unit.support.tolist()
        assert np.array_equal(huge.probs, unit.probs)
        n = huge.support
        poisson = np.exp(-np.array([math.lgamma(k + 1) for k in n]))
        # Poisson(1) on the certified support, which drops less than 1e-12
        assert np.max(np.abs(huge.probs - poisson / poisson.sum())) <= 1e-15

    def test_poisson_within_the_cap_is_left_to_the_scan(self):
        # Poisson(1.95e6) fits in 1,959,836 states: no up-front refusal, and the scan cuts it
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=1.95e6, a=1, volume=1)
        lo, logw, _ = birthdeath._stationary_scan(kp, 1e-12)
        assert lo == 0 and len(logw) == 1_959_836

    def test_root_past_every_double_is_refused_with_a_finite_root(self):
        # b(N) - d(N+1) = -N^2 + (1e160 - 2) N: its upper root 1e160, whose square
        # overflows, is found through the scaled quadratic
        kp = KineticParams(k1=1e160, k_m1=1, k2=1, k_m2=1, a=1, volume=1)
        assert continuous_extremum_roots(kp)[-1] == pytest.approx(1e160, rel=1e-15)
        for route in (stationary_distribution, find_extrema):
            with pytest.raises(SupportTooLarge, match="upper extremum root 1e\\+160"):
                route(kp)

    def test_huge_death_rate_gives_a_law_on_two_states(self):
        # with k2 = 1e200, b^2 of the unscaled quadratic overflows; P(1) is ~1e-200
        d = stationary_distribution(KineticParams(k1=1, k_m1=1, k2=1e200, k_m2=1, a=1, volume=1))
        assert d.support.tolist() == [0, 1]
        assert d.probs[1] == pytest.approx(1e-200, rel=1e-12, abs=0)

    @pytest.mark.parametrize("tail_tol", [0.0, 1e-2, math.nan])
    def test_rejects_tail_tol_outside_its_range(self, tail_tol):
        with pytest.raises(DomainError):
            stationary_distribution(BIMODAL, tail_tol=tail_tol)

    def test_exact_weights_refuse_a_vanishing_death_rate(self):
        # k2 = 0 gives d(1) = 0 while b(0) = 1
        with pytest.raises(NonNormalizable):
            stationary_weights_exact(KineticParams(k1=1, k_m1=1, k2=0, k_m2=1, a=1, volume=1), 5)

    def test_scan_out_of_states_is_too_large(self):
        # NegBin(1, 1 - 1.36e-5) holds ~1.5e-12 past 2,000,000 states: under
        # the up-front check's factor 2, so the scan itself runs out of states
        kp = KineticParams(k1=1 - 1.36e-5, k_m1=0, k2=1, k_m2=1, a=1, volume=1)
        with pytest.raises(SupportTooLarge, match="support exceeded"):
            stationary_distribution(kp)

    def test_empty_chain_degenerates(self):
        d = stationary_distribution(
            KineticParams(k1=1, k_m1=0.5, k2=1, k_m2=0, a=1, volume=1))
        assert d.support.tolist() == [0]
        assert d.probs[0] == 1.0

    @pytest.mark.parametrize("kp", [BIMODAL, IMMIGRATION_DEATH, DETAILED_BALANCE,
                                    KineticParams(0.5, 0, 1, 2, 1, 1)])
    def test_zeroes_the_probability_flow(self, kp):
        d = stationary_distribution(kp)
        p = d.probs
        b = np.array([birth_rate(int(n), kp) for n in d.support])
        dr = np.array([death_rate(int(n), kp) for n in d.support])
        flux_in = p[:-2] * b[:-2] + p[2:] * dr[2:]
        flux_out = p[1:-1] * (b[1:-1] + dr[1:-1])
        max_flux = max(np.max(np.abs(flux_in)), np.max(np.abs(flux_out)))
        assert np.max(np.abs(flux_in - flux_out)) < 1e-10 * max_flux

    @pytest.mark.parametrize("kp", [BIMODAL, IMMIGRATION_DEATH, DETAILED_BALANCE])
    def test_matches_exact_rational_product(self, kp):
        d = stationary_distribution(kp)
        n_top = min(int(d.support[-1]), 50)
        exact = stationary_weights_exact(kp, n_top)
        with mp.workdps(60):
            total = sum(mp.mpf(w.numerator) / w.denominator for w in
                        stationary_weights_exact(kp, int(d.support[-1])))
            for n in range(n_top + 1):
                ref = float(mp.mpf(exact[n].numerator) / exact[n].denominator / total)
                if ref > 1e-280:
                    assert d.probs[n] == pytest.approx(ref, rel=1e-9)

    def test_negative_binomial_to_the_last_subnormal_bit(self):
        # k_m1 = 0 gives NegBin(r = k_m2*A*V/(k1*A), rho = k1*A/k2); the left
        # tail of this law is subnormal (p(253) ~ 2e-320), where a law rounded
        # twice on normalization misses the closed form at rtol 1e-9, atol 0
        k1a, k2, km2av, v = (0.15165623946406423, 1.3458537590355417,
                             1785.1092792296733, 86.60174446832924)
        d = stationary_distribution(KineticParams(k1=k1a, k_m1=0, k2=k2, k_m2=km2av / v,
                                                  a=1, volume=v))
        r, rho = km2av / k1a, k1a / k2
        ref = np.exp([math.lgamma(n + r) - math.lgamma(r) - math.lgamma(n + 1)
                      + r * math.log1p(-rho) + n * math.log(rho) for n in d.support])
        assert d.probs[253] < 1e-300
        np.testing.assert_allclose(d.probs, ref, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kp", [
        DETAILED_BALANCE,
        POISSON_2000,
        # r(0) ~ 5e-14 meets the bound at N = 1, but on the rising branch of the ratio
        KineticParams(k1=5, k_m1=0.3, k2=2, k_m2=1e-13, a=1, volume=1),
    ])
    def test_cut_matches_the_state_by_state_certificate(self, kp):
        d = stationary_distribution(kp)
        assert d.support.tolist() == list(range(certified_cut(kp) + 1))

    def test_cut_past_the_first_chunk(self):
        d = stationary_distribution(POISSON_2000)
        assert d.support[-1] > 256
        assert total_variation(d, poisson_distribution(2000.0)) < 1e-10

    def test_no_spontaneous_annihilation_lives_above_zero(self):
        # k2 = 0 < b(0): d(1) = 0, so state 0 is left at once and never
        # re-entered; here r(n) = 1/n for n >= 1 and P(n) = 1/(e (n-1)!)
        kp = KineticParams(k1=1, k_m1=1, k2=0, k_m2=1, a=1, volume=1)
        d = stationary_distribution(kp)
        assert d.support[0] == 1
        w = [Fraction(1)]
        for n in range(1, int(d.support[-1])):
            w.append(w[-1] * Fraction(birth_rate(n, kp)) / Fraction(death_rate(n + 1, kp)))
        with mp.workdps(60):
            total = sum(mp.mpf(x.numerator) / x.denominator for x in w)
            ref = [float(mp.mpf(x.numerator) / x.denominator / total) for x in w]
        np.testing.assert_allclose(d.probs, ref, rtol=1e-12, atol=0)
        assert d.probs[0] == pytest.approx(math.exp(-1), rel=1e-12)
        rep = find_extrema(kp)
        assert rep.integer_maxima == (1, 2)
        assert rep.integer_minima == ()
        assert not rep.is_bimodal

    def test_truncation_soundness(self):
        loose = stationary_distribution(BIMODAL, tail_tol=1e-4)
        tight = stationary_distribution(BIMODAL, tail_tol=1e-12)
        k = len(loose.support)
        assert len(tight.support) >= k
        assert np.max(np.abs(loose.probs - tight.probs[:k])) < 1e-4


class TestFindExtrema:
    def test_bimodal_benchmark(self):
        rep = find_extrema(BIMODAL)
        assert rep.integer_maxima == (0, 9)
        assert rep.integer_minima == (1,)
        assert rep.is_bimodal
        assert rep.continuous_roots == pytest.approx((0.770, 8.231), abs=1e-3)
        # the alternative published closed form disagrees here
        assert rep.discrepancy_flag

    def test_poisson_mode_tie(self):
        rep = find_extrema(IMMIGRATION_DEATH)
        assert rep.integer_maxima == (2, 3)
        assert not rep.is_bimodal

    def test_detailed_balance_mode_tie(self):
        rep = find_extrema(DETAILED_BALANCE)
        assert rep.integer_maxima == (1, 2)
        assert not rep.is_bimodal

    @pytest.mark.parametrize("kp", [BIMODAL, DETAILED_BALANCE, IMMIGRATION_DEATH])
    def test_maxima_are_literal_argmax_neighbourhoods(self, kp):
        rep = find_extrema(kp)
        d = stationary_distribution(kp)
        assert len(rep.integer_maxima) > 0
        for n in rep.integer_maxima:
            assert d.prob(n) >= d.prob(n - 1) - 1e-15 if n > 0 else True
            assert d.prob(n) >= d.prob(n + 1) - 1e-15

    @pytest.mark.parametrize("kp", [FAST_LIMIT, BIMODAL, *random_dyadic_chains(40, seed=3)])
    def test_matches_extrema_of_exact_weights(self, kp):
        top = int(stationary_distribution(kp).support[-1])
        rep = find_extrema(kp)
        assert (rep.integer_maxima, rep.integer_minima) == \
            extrema_from_weights(stationary_weights_exact(kp, top + 1))

    def test_continuous_roots_bracket_integer_crossings(self):
        rep = find_extrema(BIMODAL)
        r_lo, r_hi = rep.continuous_roots
        # ratio crosses 1 upward just past the first root, downward past the second
        assert step_ratio(int(np.floor(r_lo)), BIMODAL) < 1 < \
            step_ratio(int(np.ceil(r_lo)), BIMODAL)
        assert step_ratio(int(np.floor(r_hi)), BIMODAL) > 1 > \
            step_ratio(int(np.ceil(r_hi)), BIMODAL)

    def test_propagates_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            find_extrema(KineticParams(k1=2, k_m1=0, k2=1, k_m2=0.5, a=1, volume=1))

    def test_roots_that_overflow_are_left_out(self):
        # -(0.1) N^2 - (0.1 + 1e308) N + (1 - 1e308): the lower root ~-1e309
        # overflows; the alternative form's upper root does too
        rep = find_extrema(KineticParams(k1=0, k_m1=1, k2=1e308, k_m2=0.1, a=1, volume=10))
        assert rep.continuous_roots == (-1.0,)
        assert rep.alt_closed_form_roots == (1.0,)


class TestQuadraticRoots:
    def test_roots_ascend(self):
        assert _quadratic_roots(1.0, -3.0, 2.0) == (1.0, 2.0)
        assert _quadratic_roots(-1.0, 3.0, -2.0) == (1.0, 2.0)

    def test_small_root_keeps_its_digits(self):
        # x^2 - 1e8 x + 1: the textbook (-b + sqrt(disc))/2a loses the root 1e-8
        lo, hi = _quadratic_roots(1.0, -1e8, 1.0)
        assert lo == pytest.approx(1e-8, rel=1e-15, abs=0) and hi == pytest.approx(1e8, rel=1e-15)

    @pytest.mark.parametrize("a, b, c, roots", [
        (1.0, 0.0, 1.0, ()),                    # negative discriminant
        (math.inf, math.inf, 1.0, ()),          # NaN discriminant
        (0.0, 0.0, 1.0, ()),                    # no x at all
        (0.0, -2.0, 1.0, (0.5,)),               # linear
        (0.0, 1e-300, 1e300, ()),               # linear root past every double
        (5e-324, 1.0, -1.0, (1.0,)),            # a scales to 0: its root overflows
        (1.0, 0.0, 0.0, (0.0, 0.0)),            # double root 0
        (-1e-200, -1e200, -1e200, (-1.0,)),     # b^2 overflows unscaled
    ])
    def test_every_root_is_finite(self, a, b, c, roots):
        assert _quadratic_roots(a, b, c) == roots


class TestFastMegLimit:
    def test_reference_case(self):
        kp = FAST_LIMIT
        n0 = fast_meg_limit_root(kp)
        assert n0 == 2.0
        # exact rational check: the stationary ratio is exactly 1 at n0
        b = Fraction(1, 2) * 2 + Fraction(2)
        d = Fraction(1) * 3
        assert b / d == 1
        assert find_extrema(kp).integer_maxima == (2, 3)

    def test_immigration_death_reduction(self):
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=3, a=1, volume=1)
        assert fast_meg_limit_root(kp) == 2.0  # Poisson mode arithmetic: mean - 1

    def test_formula_value_with_divergent_chain(self):
        kp = KineticParams(k1=2, k_m1=0, k2=1, k_m2=0.5, a=1, volume=1)
        assert fast_meg_limit_root(kp) == pytest.approx(0.5)
        with pytest.raises(NonNormalizable):
            stationary_distribution(kp)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            fast_meg_limit_root(KineticParams(k1=1, k_m1=0, k2=1, k_m2=1, a=1, volume=1))

    def test_requires_fast_limit(self):
        with pytest.raises(Exception):
            fast_meg_limit_root(BIMODAL)


class TestDetailedBalanceGap:
    def test_compatible(self):
        assert detailed_balance_gap(DETAILED_BALANCE) == 0.0

    def test_incompatible(self):
        kp = KineticParams(k1=1, k_m1=1, k2=1, k_m2=2, a=1, volume=1)
        assert detailed_balance_gap(kp) == pytest.approx(1.0)

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            detailed_balance_gap(KineticParams(k1=1, k_m1=0, k2=1, k_m2=2, a=1, volume=1))

    def test_zero_gap_implies_poisson(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k_m1, k2, v = rng.uniform(0.2, 3.0, size=3)
            xbar = rng.uniform(0.5, 6.0)
            kp = KineticParams(k1=xbar * k_m1, k_m1=k_m1, k2=k2, k_m2=xbar * k2,
                               a=1.0, volume=v)
            assert detailed_balance_gap(kp) < 1e-12
            d = stationary_distribution(kp)
            assert total_variation(d, poisson_distribution(xbar * v)) < 1e-10


def _uniformized(kp, initial, t_grid, n_max):
    """Exact laws from ``initial`` on the leaky lattice 0..n_max, by uniformization.

    With lam the largest total rate (> 0), P = I + Q/lam has non-negative entries, and
    the law after a time tau is sum_k e^(-lam tau) (lam tau)^k / k! P^k p: a sum of
    non-negative terms.  Each span is cut into pieces with lam tau <= 30, so e^(-lam tau)
    stays normal, and a piece's sum stops once its Poisson weights pass their mode and
    fall below 1e-18.
    """
    n = np.arange(n_max + 1)
    b, d = birth_rate(n, kp), death_rate(n, kp)
    lam = float(np.max(b + d))
    stay, up, down = (lam - (b + d)) / lam, b[:-1] / lam, d[1:] / lam
    p = np.zeros(n_max + 1)
    p[initial.support] = initial.probs
    laws = []
    for span in np.diff([0.0, *t_grid]):
        pieces = max(1, math.ceil(lam * span / 30))
        x = lam * span / pieces
        for _ in range(pieces):
            term = math.exp(-x) * p
            p, weight, k = term.copy(), math.exp(-x), 0
            while k <= x or weight > 1e-18:
                k += 1
                nxt = stay * term
                nxt[1:] += up * term[:-1]
                nxt[:-1] += down * term[1:]
                term = nxt * (x / k)
                weight *= x / k
                p += term
        laws.append(p.copy())
    return laws


class TestTransientEvolve:
    @pytest.mark.parametrize("kp, t_grid, n_max", [
        (BIMODAL, [0.05, 0.25, 0.5, 1.0, 2.0], 60),
        (DETAILED_BALANCE, [0.1, 0.5, 1.0, 2.0, 5.0], 40),
        (IMMIGRATION_DEATH, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0], 40),
        # top rate 0.9 + 0.3 * 30 = 9.9 exactly: a span of x = 9.9, one full step, then
        # one of x = 9.90001, two steps
        (KineticParams(k1=0, k_m1=0, k2=0.3, k_m2=0.9, a=1, volume=1), [1.0, 2.000001], 30),
    ], ids=["bimodal", "detailed-balance", "immigration-death", "one-step-then-two"])
    def test_matches_uniformization(self, kp, t_grid, n_max):
        init = DiscreteDistribution.from_probs([0], [1.0])
        laws = transient_evolve(kp, init, t_grid, n_max=n_max)
        for t, d, ref in zip(t_grid, laws, _uniformized(kp, init, t_grid, n_max)):
            assert np.max(np.abs(d.probs - ref)) <= 1e-12, t

    def test_immigration_death_mean_relaxation(self):
        # from the empty state the law stays Poisson with mean 3 (1 - e^-t), at every state
        init = DiscreteDistribution.from_probs([0], [1.0])
        t_grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        n = np.arange(41)
        log_factorial = np.array([math.lgamma(k + 1) for k in n])
        dists = transient_evolve(IMMIGRATION_DEATH, init, t_grid, n_max=40)
        for t, d in zip(t_grid, dists):
            mean = 3.0 * -math.expm1(-t)
            assert d.mean() == pytest.approx(mean, abs=1e-6)
            assert abs(d.probs.sum() - 1.0) < 1e-12
            assert np.max(np.abs(d.probs - np.exp(n * math.log(mean) - mean - log_factorial))) <= 1e-13

    def test_a_dense_grid_takes_short_exact_steps(self, monkeypatch):
        # spans of 0.002 on rates up to 43 are one step each at x = 0.086, of degree
        # 9; the laws stay Poisson with mean 3 (1 - e^-t) as on a sparse grid
        degrees, real = [], birthdeath._taylor_degree

        def spy(x):
            degrees.append(real(x))
            return degrees[-1]

        monkeypatch.setattr(birthdeath, "_taylor_degree", spy)
        init = DiscreteDistribution.from_probs([0], [1.0])
        t_grid = [0.002 * (j + 1) for j in range(500)]
        n = np.arange(41)
        log_factorial = np.array([math.lgamma(k + 1) for k in n])
        dists = transient_evolve(IMMIGRATION_DEATH, init, t_grid, n_max=40)
        assert set(degrees) == {9}
        for t, d in zip(t_grid, dists):
            mean = 3.0 * -math.expm1(-t)
            assert np.max(np.abs(d.probs - np.exp(n * math.log(mean) - mean - log_factorial))) <= 1e-13

    @pytest.mark.parametrize("x", [1e-20, 0.01, 0.172, 1.0, 3.0, 3.54, 5.0, 9.9])
    def test_the_taylor_degree_is_the_lowest_within_the_bound(self, x):
        # after the shift the degree-m step is off by at most e^-x sum_{k>m} x^k/k!, a
        # Poisson(x) tail, which the degree keeps within the unshifted degree-30 tail at
        # x = 3.54, and one degree less would not; the rule bounds that limit from
        # above, within 0.05%
        x_mp = mp.mpf(x)
        tail = [mp.exp(-x_mp) * mp.nsum(lambda k: x_mp ** k / mp.factorial(k), [m + 1, mp.inf])
                for m in range(birthdeath._DEGREE + 1)]
        limit = mp.nsum(lambda k: mp.mpf(3.54) ** k / mp.factorial(k), [31, mp.inf])
        m = birthdeath._taylor_degree(x)
        assert m <= 55
        assert tail[m] <= limit * (1 + 1e-3)
        assert m == 0 or tail[m - 1] > limit

    def test_linear_birth_death_matches_kendall(self):
        # b = lam n + nu, d = mu n: from the empty state X(t) is negative binomial with
        # r = nu/lam and q(t) = lam (e^((lam-mu)t) - 1)/(lam e^((lam-mu)t) - mu)
        # (Kendall, Ann. Math. Stat. 19, 1, 1948)
        lam, mu, nu = 0.8, 1.0, 4.0
        kp = KineticParams(k1=lam, k_m1=0, k2=mu, k_m2=nu, a=1, volume=1)
        init = DiscreteDistribution.from_probs([0], [1.0])
        t_grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        n = np.arange(201)
        r = nu / lam
        log_binom = np.array([math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1) for k in n])
        for t, d in zip(t_grid, transient_evolve(kp, init, t_grid, n_max=200)):
            grow = math.expm1((lam - mu) * t)
            q = lam * grow / (lam * grow + lam - mu)
            law = np.exp(log_binom + n * math.log(q) + r * math.log1p(-q))
            assert np.max(np.abs(d.probs - law)) <= 1e-13, t

    def test_long_horizon_reaches_stationarity(self):
        init = DiscreteDistribution.from_probs([0], [1.0])
        d_t, = transient_evolve(DETAILED_BALANCE, init, [30.0], n_max=40)
        assert total_variation(d_t, stationary_distribution(DETAILED_BALANCE)) < 1e-6

    def test_absorbing_empty_chain(self):
        kp = KineticParams(k1=1, k_m1=0.5, k2=1, k_m2=0, a=1, volume=1)
        init = DiscreteDistribution.from_probs([0], [1.0])
        for d in transient_evolve(kp, init, [1.0, 10.0], n_max=10):
            assert d.prob(0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t_grid", [[math.nan], [1.0, math.inf], [-1.0, 1.0], [2.0, 1.0]])
    def test_rejects_bad_time_grid(self, t_grid):
        initial = DiscreteDistribution.from_probs([0], [1.0])
        with pytest.raises(DomainError):
            transient_evolve(IMMIGRATION_DEATH, initial, t_grid, n_max=40)

    def test_rejects_initial_law_past_n_max(self):
        init = DiscreteDistribution.from_probs([50], [1.0])
        with pytest.raises(DomainError):
            transient_evolve(IMMIGRATION_DEATH, init, [1.0], n_max=40)

    def test_truncation_breach(self):
        init = DiscreteDistribution.from_probs([0], [1.0])
        with pytest.raises(TruncationBreach):
            transient_evolve(IMMIGRATION_DEATH, init, [5.0], n_max=5)

    @pytest.mark.parametrize("n_max", [10.5, 40.0, math.nan, "40", None])
    def test_n_max_must_be_an_integer(self, n_max):
        init = DiscreteDistribution.from_probs([0], [1.0])
        with pytest.raises(DomainError, match="n_max"):
            transient_evolve(IMMIGRATION_DEATH, init, [1.0], n_max=n_max)

    @pytest.mark.parametrize("kp, t_grid, n_max, error, match", [
        (IMMIGRATION_DEATH, [1.0], 10**12, SupportTooLarge, "past 2000000 states"),
        (IMMIGRATION_DEATH, [1.0], _MAX_SUPPORT + 1, SupportTooLarge, "past 2000000 states"),
        (IMMIGRATION_DEATH, [1e300], 40, DomainError, "Taylor products"),
        (IMMIGRATION_DEATH, [1.0, 1.7e308], 40, DomainError, "Taylor products"),   # inf steps
        (DETAILED_BALANCE, [1.0, 4000.0], 40, DomainError, "Taylor products"),
        (KineticParams(k1=0, k_m1=1e308, k2=1, k_m2=3, a=1, volume=1), [1.0], 100,
         DomainError, "overflow"),
        # every rate 0: no step at all, but 200 laws of 100,001 states to store
        (KineticParams(k1=0, k_m1=0, k2=0, k_m2=0, a=1, volume=1),
         [float(t) for t in range(1, 201)], 100_000, DomainError, "store more than"),
    ], ids=["huge-lattice", "one-past-the-cap", "far-horizon", "steps-overflow",
            "long-second-span", "rate-overflow", "too-many-stored-states"])
    def test_too_much_work_is_refused_before_the_lattice(self, kp, t_grid, n_max, error, match,
                                                         no_lattice):
        init = DiscreteDistribution.from_probs([0], [1.0])
        with pytest.raises(error, match=match):
            transient_evolve(kp, init, t_grid, n_max=n_max)


_LOG_RATE = st.floats(-6.0, 6.0).map(math.exp)


@st.composite
def kinetic_params(draw):
    """Rates log-uniform in e^+-6 and V in e^-2..e^4; half the draws take k_m1 = 0
    with k1*A/k2 within 1e-9..1e-1 of 1, on either side."""
    k2, k_m2, volume = draw(_LOG_RATE), draw(_LOG_RATE), draw(st.floats(-2.0, 4.0).map(math.exp))
    if draw(st.booleans()):
        gap = 10.0 ** draw(st.floats(-9.0, -1.0))
        k1, k_m1 = k2 * (1 + gap if draw(st.booleans()) else 1 - gap), 0.0
    else:
        k1, k_m1 = draw(_LOG_RATE), draw(_LOG_RATE)
    return KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2, a=1, volume=volume)


@settings(max_examples=60, deadline=None)
@given(kinetic_params())
# a ratio that overflows, a ratio that underflows, a death rate that overflows
@example(KineticParams(k1=0, k_m1=1, k2=5e-324, k_m2=1, a=1, volume=1))
@example(KineticParams(k1=0, k_m1=0, k2=1, k_m2=5e-324, a=1, volume=1))
@example(KineticParams(k1=0, k_m1=1, k2=1e308, k_m2=0.1, a=1, volume=10))
@example(KineticParams(k1=0, k_m1=0, k2=2, k_m2=5e-324, a=1, volume=1))   # lam = c/k2 underflows
def test_law_and_extrema_are_finite_or_a_typed_error(kp):
    try:
        d = stationary_distribution(kp)
    except MegstatError as exc:
        with pytest.raises(type(exc)):
            find_extrema(kp)
        return
    assert np.all(np.isfinite(d.probs))
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    lo = int(d.support[0])
    assert lo in (0, 1) and d.support.tolist() == list(range(lo, lo + len(d.support)))
    rep = find_extrema(kp)
    assert all(math.isfinite(x) for x in rep.continuous_roots + rep.alt_closed_form_roots)
    assert rep.integer_maxima and set(rep.integer_maxima) <= set(d.support.tolist())
    # the law's peak is among the reported maxima, up to rounding on a near-flat top
    assert d.probs[np.subtract(rep.integer_maxima, lo)].max() >= d.probs.max() * (1 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(rates=st.lists(st.one_of(st.just(0.0), _LOG_RATE), min_size=4, max_size=4),
       volume=st.floats(-2.0, 4.0).map(math.exp), n_max=st.integers(0, 12),
       n_init=st.integers(0, 12), reach=st.floats(0.0, 200.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_transient_laws_are_normalized_or_a_typed_error(rates, volume, n_max, n_init, reach,
                                                        fractions):
    # t_end * max_rate <= 200 keeps each span to at most 21 Taylor steps
    kp = KineticParams(*rates, a=1, volume=volume)
    states = np.arange(n_max + 1)
    max_rate = float(np.max(birth_rate(states, kp) + death_rate(states, kp)))
    t_grid = sorted({f * reach / (max_rate if max_rate > 0 else 1.0) for f in fractions})
    init = DiscreteDistribution.from_probs([min(n_init, n_max)], [1.0])
    try:
        laws = transient_evolve(kp, init, t_grid, n_max=n_max)
    except MegstatError:
        return
    assert len(laws) == len(t_grid)
    for d in laws:
        assert d.support.tolist() == states.tolist()
        assert np.all(np.isfinite(d.probs)) and abs(d.probs.sum() - 1.0) <= 1e-12
    if max_rate > 0:
        # each law is rescaled to sum to 1 after at most 1e-9 leaked past n_max
        for d, ref in zip(laws, _uniformized(kp, init, t_grid, n_max)):
            assert np.max(np.abs(d.probs - ref / ref.sum())) <= 1e-12


def test_incompatible_rates_break_poisson_criterion():
    rng = np.random.default_rng(11)
    found = 0
    while found < 10:
        k1, k_m1, k2, k_m2 = rng.uniform(0.1, 3.0, size=4)
        kp = KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2, a=1.0, volume=1.0)
        if detailed_balance_gap(kp) < 0.1:
            continue
        delta = moments(stationary_distribution(kp)).poisson_deviation
        assert abs(delta) > 1e-6
        found += 1
