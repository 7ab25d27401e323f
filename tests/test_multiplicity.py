import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from megstat import (
    ReducedStatParams,
    calibrate_coupling,
    deviation_scan,
    log_stat_weight,
    moments,
    multiplicity_distribution,
)
from megstat import multiplicity
from megstat.errors import (DegenerateChannel, DomainError, MegstatError, NoChannel,
                            SupportTooLarge, Unreachable)

# frozen oracle values, computed by 50-digit brute-force summation of the
# raw phase-space weights (see the high-precision oracle below)
G_CALIBRATED = 133.036020036       # coupling giving mean 4.2 at ratio 3.63
PROBS_363 = {2: 0.001826679, 4: 0.89634664, 6: 0.10182668}
M2_363 = 18.01461343
MEAN_49 = 6.019116605
M2_49 = 36.44146433


def _direct_oracle(g, eps, dps=50):
    """Independent high-precision evaluation: raw weights, direct summation."""
    with mp.workdps(dps):
        g, eps = mp.mpf(repr(g)), mp.mpf(repr(eps))
        weights = {}
        n = 2
        while eps - mp.mpf(n) / 2 > 0:
            k = 3 * n // 2
            weights[n] = g ** n * (eps - mp.mpf(n) / 2) ** (k - 1) / mp.gamma(k)
            n += 2
        total = sum(weights.values())
        return {n: float(w / total) for n, w in weights.items()}


class TestLogStatWeight:
    def test_direct_substitution(self):
        p = ReducedStatParams(coupling=1.0, energy_ratio=2.0)
        assert log_stat_weight(2, p) == pytest.approx(-math.log(2), abs=1e-12)

    def test_hand_evaluation_n2(self):
        p = ReducedStatParams(coupling=1.0, energy_ratio=3.63)
        assert log_stat_weight(2, p) == pytest.approx(1.240820512, abs=1e-8)

    def test_hand_evaluation_n4(self):
        p = ReducedStatParams(coupling=1.0, energy_ratio=3.63)
        assert log_stat_weight(4, p) == pytest.approx(-2.344591669, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 1, 0, -2])
    def test_rejects_bad_multiplicity(self, n):
        p = ReducedStatParams(coupling=1.0, energy_ratio=5.0)
        with pytest.raises(DomainError):
            log_stat_weight(n, p)

    def test_rejects_closed_channel(self):
        p = ReducedStatParams(coupling=1.0, energy_ratio=3.0)
        with pytest.raises(DomainError):
            log_stat_weight(6, p)  # residual energy would be exactly 0


class TestMultiplicityDistribution:
    def test_single_channel(self):
        d = multiplicity_distribution(ReducedStatParams(7.0, 1.5))
        assert d.support.tolist() == [2]
        assert d.probs[0] == 1.0

    def test_lowest_channel_dominates_at_small_coupling(self):
        d = multiplicity_distribution(ReducedStatParams(1e-12, 3.63))
        assert d.prob(2) > 1.0 - 1e-10

    def test_no_channel(self):
        with pytest.raises(NoChannel):
            multiplicity_distribution(ReducedStatParams(1.0, 1.0))

    def test_calibrated_case_matches_frozen_oracle(self):
        d = multiplicity_distribution(ReducedStatParams(G_CALIBRATED, 3.63))
        assert d.support.tolist() == [2, 4, 6]
        for n, p in PROBS_363.items():
            assert d.prob(n) == pytest.approx(p, rel=1e-6)

    def test_support_parity_and_cutoff(self):
        for eps in (1.2, 2.0, 3.63, 4.9, 7.5, 11.0):
            d = multiplicity_distribution(ReducedStatParams(3.0, eps))
            assert np.all(d.support % 2 == 0)
            n_top = int(d.support[-1])
            assert eps - n_top / 2 > 0
            assert eps - (n_top + 2) / 2 <= 0

    @pytest.mark.parametrize("eps", [1.7, 2.5, 3.63, 4.9, 6.2, 9.0, 12.0])
    @pytest.mark.parametrize("g", [0.05, 1.0, 40.0, 2000.0])
    def test_log_space_equals_direct_high_precision(self, g, eps):
        d = multiplicity_distribution(ReducedStatParams(g, eps))
        oracle = _direct_oracle(g, eps)
        assert set(d.support.tolist()) == set(oracle)
        for n, p in oracle.items():
            assert d.prob(n) == pytest.approx(p, rel=1e-9)

    def test_independent_of_the_lgamma_table_history(self, monkeypatch):
        params = ReducedStatParams(40.0, 12.0)
        monkeypatch.setattr(multiplicity, "_LGAMMA", np.array([math.inf]))
        first = multiplicity_distribution(params).probs.tobytes()
        multiplicity_distribution(ReducedStatParams(40.0, 1350.0))   # grows the table
        assert multiplicity_distribution(params).probs.tobytes() == first

    def test_channel_cap_refuses_before_the_table_grows(self, monkeypatch):
        monkeypatch.setattr(multiplicity, "_MAX_SUPPORT", 10)
        monkeypatch.setattr(multiplicity, "_LGAMMA", np.array([math.inf]))
        assert len(multiplicity.open_channels(11.0)) == 10   # at the cap
        for refused in (lambda: multiplicity.open_channels(11.5),
                        lambda: multiplicity_distribution(ReducedStatParams(1.0, 11.5)),
                        lambda: calibrate_coupling(11.5, 5.0),
                        lambda: log_stat_weight(22, ReducedStatParams(1.0, 100.0))):
            with pytest.raises(SupportTooLarge):
                refused()
        assert len(multiplicity._LGAMMA) == 1
        assert math.isfinite(log_stat_weight(20, ReducedStatParams(1.0, 100.0)))   # at the cap

    def test_long_channel_list_equals_direct_high_precision(self):
        # 199 channels: ln Gamma(3n/2) up to k = 597, every normal entry at rel 1e-9
        d = multiplicity_distribution(ReducedStatParams(25.0, 200.0))
        oracle = _direct_oracle(25.0, 200.0)
        assert d.support.tolist() == sorted(oracle)
        for n, p in oracle.items():
            if p > 1e-300:
                assert d.prob(n) == pytest.approx(p, rel=1e-9, abs=0)


class TestExcitonYield:
    def test_point_mass(self):
        d = multiplicity_distribution(ReducedStatParams(1.0, 1.5))
        assert moments(d).exciton_yield == 1.0

    def test_calibrated_case(self):
        d = multiplicity_distribution(ReducedStatParams(G_CALIBRATED, 3.63))
        assert moments(d).exciton_yield == pytest.approx(2.1, abs=1e-6)


class TestCalibration:
    def test_reference_case(self):
        res = calibrate_coupling(3.63, 4.2)
        assert abs(res.achieved_mean - 4.2) <= 1e-6
        assert res.coupling == pytest.approx(G_CALIBRATED, rel=1e-4)
        assert res.coupling ** 2 == pytest.approx(1.77e4, rel=1e-2)
        assert res.bracket[0] < res.coupling < res.bracket[1]

    def test_single_channel_cannot_calibrate(self):
        with pytest.raises(DegenerateChannel):
            calibrate_coupling(1.5, 2.0)

    def test_target_beyond_support(self):
        with pytest.raises(Unreachable):
            calibrate_coupling(3.63, 6.5)

    def test_target_at_lower_edge(self):
        with pytest.raises(Unreachable):
            calibrate_coupling(3.63, 2.0)

    @pytest.mark.parametrize("target", [2.3, 3.0, 4.5, 5.2, 5.9])
    def test_round_trip(self, target):
        res = calibrate_coupling(4.9, target)
        d = multiplicity_distribution(ReducedStatParams(res.coupling, 4.9))
        assert d.mean() == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("eps", [3.63, 10.0, 100.0, 1000.0, 1350.0])
    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_newton_round_trip_across_range(self, eps, fraction):
        n_max = 2 * math.ceil(eps) - 2
        target = 2.0 + fraction * (n_max - 2.0)
        res = calibrate_coupling(eps, target)
        assert abs(res.achieved_mean - target) <= 1e-6
        assert res.achieved_mean == \
            multiplicity_distribution(ReducedStatParams(res.coupling, eps)).mean()
        assert res.bracket[0] <= res.coupling <= res.bracket[1]
        assert res.iterations <= 20

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_energy_ratio(self, eps):
        with pytest.raises(DomainError):
            calibrate_coupling(eps, 3.0)

    def test_coupling_beyond_float_range_is_unreachable(self):
        # even g = float max gives a mean below 1996.004 (top channel 1998)
        with pytest.raises(Unreachable):
            calibrate_coupling(1000.0, 1996.004)


class TestDeviationScan:
    def test_reference_pair(self):
        scan = dict(deviation_scan(G_CALIBRATED, [3.63, 4.9]))
        assert scan[4.9] > scan[3.63] > 0

    def test_single_channel_deviation_is_two(self):
        (_, delta), = deviation_scan(123.0, [1.5])
        assert delta == pytest.approx(2.0)

    def test_positive_on_dense_grid(self):
        grid = np.linspace(2.21, 6.0, 40)
        for _, delta in deviation_scan(G_CALIBRATED, grid):
            assert delta > 0

    def test_coarse_grid_monotone(self):
        # strictly increasing on the half-unit grid; finer grids reveal
        # oscillation inside each fixed-channel window (see calibration notes)
        deltas = [d for _, d in deviation_scan(G_CALIBRATED, np.arange(3.0, 6.01, 0.5))]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))


_EPS = st.floats(0.0, math.log(1e4)).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(g=st.floats(-12.0, 12.0).map(math.exp), eps=_EPS)
def test_law_is_finite_and_normalized_or_a_typed_error(g, eps):
    try:
        d = multiplicity_distribution(ReducedStatParams(g, eps))
    except MegstatError:
        return
    assert np.all(np.isfinite(d.probs))
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    assert d.support.tolist() == list(range(2, 2 * len(d.support) + 1, 2))


@settings(max_examples=100, deadline=None)
@given(eps=_EPS, fraction=st.floats(-0.2, 1.2))
def test_calibration_meets_its_target_or_a_typed_error(eps, fraction):
    # the fractions outside [0, 1] put the target outside the reachable means
    target = 2.0 + fraction * (2 * math.ceil(eps) - 4.0)
    try:
        res = calibrate_coupling(eps, target)
    except MegstatError:
        return
    assert math.isfinite(res.coupling) and res.coupling > 0
    assert abs(res.achieved_mean - target) <= 1e-6


def test_sub_poissonian_everywhere():
    # the central claim: the law is never Poissonian on a wide parameter grid
    for g in np.logspace(-2, 5, 8):
        for eps in np.concatenate([np.linspace(1.05, 8.0, 15), [1.5, 3.63, 4.9]]):
            d = multiplicity_distribution(ReducedStatParams(g, eps))
            assert moments(d).poisson_deviation > 0
