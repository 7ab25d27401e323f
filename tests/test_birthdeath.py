import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from megstat.birthdeath import _check_support, stationary_weights_exact
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

    def test_poisson_within_the_cap_is_left_to_the_scan(self):
        # Poisson(1.95e6) fits in 1,959,836 states
        _check_support(KineticParams(k1=0, k_m1=0, k2=1, k_m2=1.95e6, a=1, volume=1), 1e-12)

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
        assert d.degenerate
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
        assert d.support[0] == 1 and not d.degenerate
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


class TestTransientEvolve:
    def test_immigration_death_mean_relaxation(self):
        init = DiscreteDistribution.from_probs([0], [1.0])
        t_grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        dists = transient_evolve(IMMIGRATION_DEATH, init, t_grid, n_max=40)
        for t, d in zip(t_grid, dists):
            assert d.mean() == pytest.approx(3.0 * (1.0 - np.exp(-t)), abs=1e-6)
            assert abs(d.probs.sum() - 1.0) < 1e-12

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
