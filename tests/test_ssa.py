import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from megstat import ssa
from megstat import (
    DiscreteDistribution,
    KineticParams,
    Trajectory,
    occupancy_histogram,
    poisson_distribution,
    simulate_trajectory,
    stationary_distribution,
    stationary_histogram,
    total_variation,
)
from megstat.birthdeath import birth_rate, death_rate
from megstat.errors import DomainError, MegstatError, NonNormalizable, SupportTooLarge

IMMIGRATION_DEATH = KineticParams(k1=0, k_m1=0, k2=1, k_m2=3, a=1, volume=1)
BIMODAL = KineticParams(k1=5, k_m1=0.3, k2=2, k_m2=0.1, a=1, volume=1)
# d(n) overflows a double from n = 2 on, while P(1) is ~1e-308
OVERFLOW_PAST_ONE = KineticParams(k1=0, k_m1=1, k2=1e308, k_m2=0.1, a=1, volume=10)


class TestSimulateTrajectory:
    def test_zero_propensity_freezes_immediately(self):
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=0, a=1, volume=1)
        traj = simulate_trajectory(kp, n_init=0, seed=1, max_events=100)
        assert traj.frozen
        assert len(traj.states) == 0
        assert traj.end_time == 0.0

    def test_pure_birth_walks_up(self):
        kp = KineticParams(k1=0, k_m1=0, k2=0, k_m2=3, a=1, volume=1)
        traj = simulate_trajectory(kp, n_init=0, seed=3, max_events=5)
        assert traj.states.tolist() == [1, 2, 3, 4, 5]
        assert np.all(np.diff(traj.event_times) > 0)

    def test_steps_are_unit_sized(self):
        traj = simulate_trajectory(BIMODAL, n_init=4, seed=9, max_events=2000)
        path = np.concatenate([[traj.initial_state], traj.states])
        assert np.all(np.abs(np.diff(path)) == 1)
        assert np.all(path >= 0)

    def test_deterministic_given_seed(self):
        a = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=42, max_events=5000)
        b = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=42, max_events=5000)
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.states, b.states)

    def test_max_time_stop(self):
        traj = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=5, max_time=10.0)
        assert traj.end_time == 10.0
        assert traj.event_times[-1] <= 10.0

    def test_rejects_a_negative_initial_state(self):
        with pytest.raises(DomainError):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=-1, seed=1, max_events=10)

    def test_rates_that_overflow_a_double(self):
        # d(n) = 1e308 n(n-1) is infinite from n = 3 on
        kp = KineticParams(k1=0, k_m1=1e308, k2=1, k_m2=1, a=1, volume=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                simulate_trajectory(kp, n_init=0, seed=1, max_events=10)

    def test_rates_the_walk_never_holds_are_not_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate_trajectory(OVERFLOW_PAST_ONE, n_init=0, seed=1, max_events=1000)
        assert len(traj.states) == 1000 and set(traj.states.tolist()) == {0, 1}
        assert np.all(np.isfinite(traj.event_times)) and not traj.frozen

    def test_event_times_that_overflow_a_double(self):
        # the waits out of a state with the smallest subnormal rate pass every double
        kp = KineticParams(k1=0, k_m1=0, k2=0, k_m2=5e-324, a=1, volume=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                simulate_trajectory(kp, n_init=0, seed=1, max_events=5)
            traj = simulate_trajectory(kp, n_init=0, seed=1, max_time=5.0)
        assert len(traj.states) == 0 and traj.end_time == 5.0 and not traj.frozen

    def test_needs_a_stop_condition(self):
        with pytest.raises(DomainError):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0)

    def test_time_weighted_occupancy_matches_poisson(self):
        # the exponential waits, not only the jumps, must be right for this
        traj = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=11, max_events=200_000)
        h = occupancy_histogram(traj, t_start=0.1 * traj.end_time)
        assert total_variation(h, poisson_distribution(3.0)) < 0.05

    def test_high_start_tabulates_a_window(self, monkeypatch):
        # the rate table spans the states a block can reach, not 0..n_init
        seen = []
        monkeypatch.setattr(ssa, "birth_rate", lambda n, kp: seen.append(n) or birth_rate(n, kp))
        traj = simulate_trajectory(BIMODAL, n_init=10**6, seed=2, max_events=50)
        window = np.arange(10**6 - 100, 10**6 + 101)
        assert any(np.array_equal(n, window) for n in seen)
        assert all(np.min(n) >= window[0] and np.max(n) <= window[-1] for n in seen)
        path = np.concatenate([[traj.initial_state], traj.states])
        assert np.all(np.abs(np.diff(path)) == 1)

    def test_drifting_walk_tabulates_a_bounded_window(self, monkeypatch):
        # a pure-birth walk climbs 10^5 states; each table spans two blocks either side of it
        sizes = []
        monkeypatch.setattr(ssa, "birth_rate", lambda n, kp: sizes.append(len(n)) or birth_rate(n, kp))
        kp = KineticParams(k1=0, k_m1=0, k2=0, k_m2=3, a=1, volume=1)
        traj = simulate_trajectory(kp, n_init=0, seed=1, max_events=10**5)
        assert traj.states[-1] == 10**5
        assert max(sizes) <= 4 * ssa._BLOCK + 1

    def test_stored_events_are_held_once(self):
        # the events are written into arrays sized by max_events: 16 B each, no joined copy
        tracemalloc.start()
        try:
            traj = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=1, max_events=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 10**6
        assert peak < 1.25 * 16 * 10**6

    def test_max_time_walk_grows_its_store(self):
        # ~60,000 events: the store doubles from one block several times
        grown = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=3, max_time=1e4)
        sized = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=3,
                                    max_events=len(grown.states))
        assert len(grown.states) > 8 * ssa._BLOCK
        assert np.array_equal(grown.states, sized.states)
        assert np.array_equal(grown.event_times, sized.event_times)
        assert grown.event_times.base is None and grown.states.base is None

    @pytest.mark.parametrize("max_events", [ssa._MAX_STORED + 1, -5, float("nan"), 2.5, 10.0])
    def test_max_events_outside_the_store_cap_is_refused_up_front(self, max_events):
        with pytest.raises(DomainError, match="max_events"):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0, max_events=max_events)

    def test_a_bad_seed_raises_at_the_call_of_an_empty_walk(self):
        with pytest.raises(DomainError, match="seed"):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=-1, max_events=0)

    @pytest.mark.parametrize("n_init", [2.5, 3.0, float("nan"), "3", None])
    def test_n_init_must_be_an_integer(self, n_init):
        with pytest.raises(DomainError, match="n_init"):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=n_init, seed=0, max_events=10)

    def test_numpy_integer_counts_are_accepted(self):
        a = simulate_trajectory(BIMODAL, n_init=np.uint64(4), seed=9, max_events=np.int32(300))
        b = simulate_trajectory(BIMODAL, n_init=4, seed=9, max_events=300)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.event_times, b.event_times)

    def test_max_time_walk_stops_at_the_store_cap(self, monkeypatch):
        monkeypatch.setattr(ssa, "_MAX_STORED", 10_000)
        # about 6 events per unit time at stationarity
        with pytest.raises(DomainError, match="not reached"):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0, max_time=1e5)
        assert simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0,
                                   max_time=100.0).end_time == 100.0
        assert len(simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0,
                                       max_events=10_000).states) == 10_000

    @pytest.mark.parametrize("max_time", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_max_time_that_never_stops(self, max_time):
        # alone, a NaN or infinite max_time would never end the event loop
        with pytest.raises(DomainError):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0, max_time=max_time)


class TestOccupancy:
    def test_two_state_chain_ratio(self):
        # hand-built alternating chain: dwell in 0 at rate b, in 1 at rate d;
        # occupancy ratio must equal the inverse rate ratio within 3 sigma
        rng = np.random.default_rng(2024)
        b, d = 0.7, 2.3
        n_cycles = 20000
        dwell0 = rng.exponential(1.0 / b, n_cycles)
        dwell1 = rng.exponential(1.0 / d, n_cycles)
        times = np.cumsum(np.column_stack([dwell0, dwell1]).ravel())
        states = np.tile([1, 0], n_cycles)
        traj = Trajectory(event_times=times, states=states, initial_state=0,
                          seed=2024, end_time=times[-1], frozen=False)
        h = occupancy_histogram(traj)
        ratio = h.prob(0) / h.prob(1)
        expected = d / b
        sigma = expected * np.sqrt(2.0 / n_cycles)
        assert abs(ratio - expected) < 3 * sigma

    def test_burn_in_discards_early_dwell(self):
        traj = Trajectory(event_times=np.array([1.0, 2.0]),
                          states=np.array([1, 2]), initial_state=0,
                          seed=0, end_time=4.0, frozen=False)
        h = occupancy_histogram(traj, t_start=2.0)
        assert h.support.tolist() == [2]
        assert h.probs[0] == 1.0
        with pytest.raises(DomainError):
            occupancy_histogram(traj, t_start=4.0)


class TestStationaryHistogram:
    def test_immigration_death_matches_poisson(self):
        h = stationary_histogram(IMMIGRATION_DEATH, seed=11, n_events=200_000)
        assert total_variation(h, poisson_distribution(3.0)) < 0.05

    def test_detailed_balance_case(self):
        kp = KineticParams(k1=1, k_m1=0.5, k2=1, k_m2=2, a=1, volume=1)
        h = stationary_histogram(kp, seed=13, n_events=200_000)
        assert total_variation(h, poisson_distribution(2.0)) < 0.05

    def test_bimodal_empirical_maxima(self):
        h = stationary_histogram(BIMODAL, seed=123, n_events=1_000_000)
        assert h.prob(0) > h.prob(1)
        upper = max(range(3, int(h.support[-1]) + 1), key=h.prob)
        assert upper in (8, 9, 10)
        assert total_variation(h, stationary_distribution(BIMODAL)) < 0.02

    def test_frozen_chain_is_the_point_mass_at_zero(self):
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=0, a=1, volume=1)
        h = stationary_histogram(kp, seed=1, n_events=20_000)
        assert h.support.tolist() == [0] and h.probs.tolist() == [1.0]

    def test_a_rate_the_walk_never_holds_is_not_refused(self):
        # d(2) = 1e308 * 2 overflows, but P(1) is ~1e-308, so the walk holds only 0 and 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = stationary_histogram(OVERFLOW_PAST_ONE, seed=1, n_events=10_000)
        law = stationary_distribution(OVERFLOW_PAST_ONE)
        assert h.support.tolist() == law.support.tolist() == [0, 1]
        assert h.probs[1] == pytest.approx(law.probs[1], rel=1e-12, abs=0)
        assert h.probs[1] == pytest.approx(1e-308, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kp, p2", [
        # d(2) = 1e308 * 2 overflows: P(2) = P(1) b(1)/d(2) = 0.5/(2e308 + 2), a subnormal
        (KineticParams(k1=0, k_m1=1e308, k2=1, k_m2=1, a=1, volume=1), 2.5e-309),
        # Poisson(0.8/0.95): b(1) + d(1) = 1.75e308 is finite, d(2) = 1.9e308 is not
        (KineticParams(k1=0, k_m1=0, k2=0.95e308, k_m2=0.8e308, a=1, volume=1),
         math.exp(-0.8 / 0.95) * (0.8 / 0.95) ** 2 / 2),
    ])
    def test_a_death_rate_that_overflows_at_a_held_state_is_refused(self, kp, p2):
        # the walk holds 2, where its b/(b+d) and dwell weight 1/(b+d) read 0 but
        # the scan keeps the ratio b(1)/d(2)
        assert stationary_distribution(kp).probs[2] == pytest.approx(p2, rel=1e-12, abs=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                stationary_histogram(kp, seed=1, n_events=10_000)

    def test_a_total_rate_that_overflows_between_finite_rates_is_refused(self):
        # Poisson(1): at state 1, b = d = 1e308 but b + d overflows, so the walk's
        # b/(b+d) reads 0 where the chain steps up with probability 1/2
        kp = KineticParams(k1=0, k_m1=0, k2=1e308, k_m2=1e308, a=1, volume=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                stationary_histogram(kp, seed=1, n_events=10_000)

    def test_a_total_rate_that_overflows_in_the_burn_in_is_refused(self):
        # d(2) = 1.7976e308 and b(2) are finite but their sum overflows; from 1 the
        # walk steps up with probability ~1e-4, and with seed 1 it holds 2 only in
        # the burn-in, so no counted state shows the overflow
        kp = KineticParams(k1=8.988e303, k_m1=0, k2=0.8988e308, k_m2=1e300, a=1, volume=1)
        with pytest.raises(DomainError, match="overflow"):
            stationary_histogram(kp, seed=1, n_events=10_000, burn_in_fraction=0.5)

    @pytest.mark.parametrize("burn_in", [-0.1, 0.6, float("nan")])
    def test_validates_burn_in(self, burn_in):
        with pytest.raises(DomainError):
            stationary_histogram(IMMIGRATION_DEATH, seed=1, n_events=10_000,
                                 burn_in_fraction=burn_in)

    @pytest.mark.parametrize("n_events", [10_000.7, 20_000.0, float("nan"), "20000"])
    def test_event_count_must_be_an_integer(self, n_events):
        with pytest.raises(DomainError, match="n_events"):
            stationary_histogram(IMMIGRATION_DEATH, seed=1, n_events=n_events)

    @pytest.mark.parametrize("n_events", [100, 10**9 + 1, 10**12])
    def test_validates_event_count(self, n_events):
        # past the 10^9 cap the call refuses at once instead of walking for hours
        with pytest.raises(DomainError):
            stationary_histogram(IMMIGRATION_DEATH, seed=1, n_events=n_events)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError):
            stationary_histogram(IMMIGRATION_DEATH, seed=seed, n_events=10_000)
        with pytest.raises(DomainError):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=seed, max_events=10)

    def test_pure_birth_chain_is_exact(self, monkeypatch):
        # d = 0, so the walk is 0, 1, 2, ... whatever the uniforms, and it runs
        # past its first rate table; after the burn-in cut each state is
        # visited once and weighted by its dwell time 1/b(n).  The chain has
        # no stationary law, so the scan is made to pass it, to test the walk alone.
        monkeypatch.setattr(ssa, "_stationary_scan",
                            lambda kp, tail_tol: (0, np.zeros(2), np.ones(1)))
        kp = KineticParams(k1=0.7, k_m1=0, k2=0, k_m2=3, a=1, volume=1)
        n_events = 20_000
        cut = int(0.1 * n_events)
        h = stationary_histogram(kp, seed=8, n_events=n_events)
        states = np.arange(cut, n_events)
        assert np.array_equal(h.support, states)
        dwell = 1.0 / (0.7 * states + 3.0)
        np.testing.assert_allclose(h.probs, dwell / dwell.sum(), rtol=1e-12, atol=0)

    def test_output_does_not_depend_on_the_block_size(self, monkeypatch):
        # 10_003 events: the burn-in cut at event 1000 falls inside a block of 7
        # and of the default size, and the last block is short
        hist = stationary_histogram(BIMODAL, seed=21, n_events=10_003)
        traj = simulate_trajectory(BIMODAL, n_init=3, seed=21, max_events=10_003)
        monkeypatch.setattr(ssa, "_BLOCK", 7)
        small = stationary_histogram(BIMODAL, seed=21, n_events=10_003)
        small_traj = simulate_trajectory(BIMODAL, n_init=3, seed=21, max_events=10_003)
        assert np.array_equal(hist.support, small.support)
        assert np.array_equal(hist.probs, small.probs)
        assert np.array_equal(traj.states, small_traj.states)
        assert np.array_equal(traj.event_times, small_traj.event_times)
        assert traj.end_time == small_traj.end_time


_RATE = st.floats(min_value=0.0, max_value=1e3)


@settings(max_examples=40, deadline=None)
@given(k1=_RATE, k_m1=_RATE, k2=_RATE, k_m2=_RATE,
       volume=st.floats(min_value=1e-2, max_value=1e2),
       seed=st.integers(0, 2**32 - 1), n_events=st.integers(10_000, 15_000),
       burn_in=st.floats(min_value=0.0, max_value=0.5))
# the scan's ratio overflows, its ratio underflows, its death rate overflows
@example(k1=0, k_m1=1, k2=5e-324, k_m2=1, volume=1, seed=1, n_events=10_000, burn_in=0.1)
@example(k1=0, k_m1=0, k2=1, k_m2=5e-324, volume=1, seed=1, n_events=10_000, burn_in=0.1)
@example(k1=0, k_m1=1, k2=1e308, k_m2=0.1, volume=10, seed=1, n_events=10_000, burn_in=0.1)
def test_histogram_is_a_law_or_a_typed_error(k1, k_m1, k2, k_m2, volume, seed, n_events,
                                              burn_in):
    kp = KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2, a=1, volume=volume)
    try:
        h = stationary_histogram(kp, seed=seed, n_events=n_events, burn_in_fraction=burn_in)
    except MegstatError:
        return
    assert np.all(np.isfinite(h.probs))
    assert abs(h.probs.sum() - 1.0) < 1e-12
    assert 0 <= h.support[0] and h.support[-1] <= n_events


@settings(max_examples=100, deadline=None)
@given(k1=_RATE, k_m1=_RATE, k2=_RATE, k_m2=_RATE,
       volume=st.floats(min_value=1e-2, max_value=1e2),
       seed=st.integers(0, 2**32 - 1), n_init=st.integers(0, 50),
       stop=st.one_of(st.tuples(st.integers(0, 5000), st.none()),
                      st.tuples(st.none(), st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e))))
def test_trajectory_is_a_jump_path_or_a_typed_error(k1, k_m1, k2, k_m2, volume, seed, n_init,
                                                    stop):
    kp = KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2, a=1, volume=volume)
    max_events, max_time = stop
    try:
        # a max_time walk stores at most 5000 events here, as a max_events walk does
        with mock.patch.object(ssa, "_MAX_STORED", 5000):
            traj = simulate_trajectory(kp, n_init=n_init, seed=seed, max_events=max_events,
                                       max_time=max_time)
    except MegstatError:
        return
    path = np.concatenate([[n_init], traj.states])
    assert np.all(np.abs(np.diff(path)) == 1) and path.min() >= 0
    assert len(traj.states) == len(traj.event_times) <= (5000 if max_events is None else max_events)
    times = np.concatenate([[0.0], traj.event_times, [traj.end_time]])
    assert np.all(np.diff(times) >= 0)
    if max_time is not None:
        assert traj.end_time <= max_time
    last = int(path[-1])
    assert not traj.frozen or birth_rate(last, kp) + death_rate(last, kp) == 0


class _Walked(Exception):
    """Raised by a walk that the gate should have made needless."""


def _no_walk(*args):
    raise _Walked


_GATE_RATE = st.one_of(st.just(0.0), st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e))


@settings(max_examples=100, deadline=None)
@given(k1=_GATE_RATE, k_m1=_GATE_RATE, k2=_GATE_RATE, k_m2=_GATE_RATE,
       volume=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))
@example(k1=0, k_m1=0, k2=1, k_m2=0, volume=1)         # frozen at 0
@example(k1=2, k_m1=0, k2=1, k_m2=1, volume=1)         # no law: a walk would drift up
@example(k1=0, k_m1=0, k2=1, k_m2=1e7, volume=1)       # Poisson(1e7)
@example(k1=1, k_m1=1e-7, k2=0.5, k_m2=1, volume=1)    # upper extremum root 5e6
@example(k1=1, k_m1=1, k2=1, k_m2=1, volume=1.999e6)   # root under the cap, cut past it
@example(k1=1e308, k_m1=1e-308, k2=1, k_m2=1, volume=1)   # upper root overflows, lost
@example(k1=1, k_m1=5e-324, k2=0, k_m2=1, volume=1e300)   # k_m1/V underflows: one root
def test_histogram_keeps_the_gate_of_the_analytic_law(k1, k_m1, k2, k_m2, volume):
    kp = KineticParams(k1=k1, k_m1=k_m1, k2=k2, k_m2=k_m2, a=1, volume=volume)
    try:
        law = stationary_distribution(kp)
    except MegstatError as exc:
        law = exc
    # the gate decides before any walk: a chain that passes it reaches _no_walk
    with mock.patch.object(ssa, "_walk", _no_walk):
        try:
            hist = stationary_histogram(kp, seed=1, n_events=10_000)
        except (_Walked, MegstatError) as exc:
            hist = exc
    assert isinstance(hist, NonNormalizable) == isinstance(law, NonNormalizable)
    # only the frozen chain has a law on the single state 0
    frozen = isinstance(law, DiscreteDistribution) and law.support.tolist() == [0]
    assert (isinstance(hist, DiscreteDistribution) and hist.support.tolist() == [0]) == frozen
    if frozen:
        for field in dataclasses.fields(law):
            a, b = getattr(hist, field.name), getattr(law, field.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)
    assert isinstance(hist, SupportTooLarge) == isinstance(law, SupportTooLarge)
    assert frozen or isinstance(hist, (_Walked, NonNormalizable, SupportTooLarge))
