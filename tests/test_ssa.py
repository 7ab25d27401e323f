import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from megstat import ssa
from megstat import (
    KineticParams,
    Trajectory,
    merged_histogram,
    occupancy_histogram,
    poisson_distribution,
    simulate_trajectory,
    stationary_distribution,
    stationary_histogram,
    total_variation,
)
from megstat.errors import DomainError, FrozenChain, MegstatError

IMMIGRATION_DEATH = KineticParams(k1=0, k_m1=0, k2=1, k_m2=3, a=1, volume=1)
BIMODAL = KineticParams(k1=5, k_m1=0.3, k2=2, k_m2=0.1, a=1, volume=1)


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

    def test_needs_a_stop_condition(self):
        with pytest.raises(DomainError):
            simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=0)

    def test_time_weighted_occupancy_matches_poisson(self):
        # the exponential waits, not only the jumps, must be right for this
        traj = simulate_trajectory(IMMIGRATION_DEATH, n_init=0, seed=11, max_events=200_000)
        h = occupancy_histogram(traj, t_start=0.1 * traj.end_time)
        assert total_variation(h, poisson_distribution(3.0)) < 0.05

    def test_high_start_tabulates_a_window(self):
        # the rate table spans the states a block can reach, not 0..n_init
        table = ssa._cover(BIMODAL, ssa._EMPTY, 10**6, 50)
        assert table.lo == 10**6 - 100
        assert len(table.up) == 201
        traj = simulate_trajectory(BIMODAL, n_init=10**6, seed=2, max_events=50)
        path = np.concatenate([[traj.initial_state], traj.states])
        assert np.all(np.abs(np.diff(path)) == 1)

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

    def test_frozen_chain_raises(self):
        kp = KineticParams(k1=0, k_m1=0, k2=1, k_m2=0, a=1, volume=1)
        with pytest.raises(FrozenChain):
            stationary_histogram(kp, seed=1, n_events=20_000)

    @pytest.mark.parametrize("burn_in", [-0.1, 0.6, float("nan")])
    def test_validates_burn_in(self, burn_in):
        with pytest.raises(DomainError):
            stationary_histogram(IMMIGRATION_DEATH, seed=1, n_events=10_000,
                                 burn_in_fraction=burn_in)

    def test_merge_needs_a_replica(self):
        with pytest.raises(DomainError):
            merged_histogram(IMMIGRATION_DEATH, base_seed=1, n_replicas=0, n_events=10_000)

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

    def test_pure_birth_chain_is_exact(self):
        # d = 0, so the walk is 0, 1, 2, ... whatever the uniforms, and it runs
        # past its first rate table; after the burn-in cut each state is
        # visited once and weighted by its dwell time 1/b(n)
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


def test_merged_replicas_deterministic():
    a = merged_histogram(IMMIGRATION_DEATH, base_seed=5, n_replicas=3, n_events=20_000)
    b = merged_histogram(IMMIGRATION_DEATH, base_seed=5, n_replicas=3, n_events=20_000)
    assert np.array_equal(a.probs, b.probs)
    assert total_variation(a, poisson_distribution(3.0)) < 0.05
