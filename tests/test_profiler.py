"""Tests for the power profiler and the battery cost model."""

import pytest

from repro.battery.chemistry import LMO, NCA
from repro.capman.profiler import BatteryCostModel, PowerProfiler, device_key_of
from repro.core.solver import value_iteration
from repro.device.phone import DemandSlice, Phone
from repro.workload.generators import VideoWorkload
from repro.workload.traces import record_trace


@pytest.fixture(scope="module")
def observed_profiler():
    trace = record_trace(VideoWorkload(seed=11), 900.0)
    prof = PowerProfiler()
    phone = Phone()
    segs = list(trace)
    for a, b in zip(segs, segs[1:]):
        prof.observe(a, b, measured_power_w=phone.demand_power_w(b.demand))
    for seg in segs:
        prof.record_dwell(seg.demand, seg.duration_s)
    return prof


class TestDeviceKey:
    def test_key_from_demand(self):
        key = device_key_of(DemandSlice(cpu_util=90.0, screen_on=True,
                                        wifi_kbps=300.0))
        assert key == ("C0", "on", "send")

    def test_idle_key(self):
        assert device_key_of(DemandSlice()) == ("sleep", "off", "idle")


class TestCostModel:
    def test_little_cheaper_for_bursts(self):
        m = BatteryCostModel(little_reserve_per_w=0.1)
        burst = 2.8
        assert m.cost_w(burst, LMO, False) < m.cost_w(burst, NCA, False)

    def test_big_cheaper_for_gentle_load_with_reserve(self):
        m = BatteryCostModel(little_reserve_per_w=0.3)
        gentle = 0.6
        assert m.cost_w(gentle, NCA, False) < m.cost_w(gentle, LMO, False)

    def test_switching_costs_extra(self):
        m = BatteryCostModel()
        assert m.cost_w(1.0, NCA, True) > m.cost_w(1.0, NCA, False)

    def test_reward_in_unit_interval(self):
        m = BatteryCostModel()
        for p in (0.0, 0.5, 2.0, 5.0):
            for chem in (NCA, LMO):
                r = m.reward(p, chem, False)
                assert 0.0 <= r <= 1.0

    def test_reward_decreases_with_cost(self):
        m = BatteryCostModel()
        assert m.reward(0.3, NCA, False) > m.reward(3.0, NCA, False)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            BatteryCostModel().cost_w(-1.0, NCA, False)

    def test_sustainable_current_ordering(self):
        m = BatteryCostModel()
        assert m.sustainable_current_a(LMO) > m.sustainable_current_a(NCA)


class TestProfiler:
    def test_observations_counted(self, observed_profiler):
        assert observed_profiler.n_observations > 50

    def test_observed_keys_cover_video_states(self, observed_profiler):
        keys = observed_profiler.observed_device_keys
        assert ("C1", "on", "send") in keys

    def test_measured_power_preferred_over_table(self, observed_profiler):
        # Video play state measured ~0.93 W, far from the 2.5 W Table III sum.
        p = observed_profiler.state_power_w(("C1", "on", "access"))
        assert 0.7 < p < 1.2

    def test_table_fallback_for_unseen_key(self, observed_profiler):
        p = observed_profiler.state_power_w(("sleep", "off", "idle"))
        assert p == pytest.approx((55.0 + 22.0 + 60.0) / 1000.0)

    def test_reserve_price_calibration_splits_video(self, observed_profiler):
        price = observed_profiler.calibrate_reserve_price()
        big, little = NCA, LMO
        m = observed_profiler.cost_model
        import dataclasses

        m = dataclasses.replace(m, little_reserve_per_w=price)
        play = observed_profiler.state_power_w(("C1", "on", "access"))
        burst = observed_profiler.state_power_w(("C1", "on", "send"))
        # With the calibrated price, plays prefer big, bursts LITTLE.
        assert m.cost_w(play, big, False) < m.cost_w(play, little, False)
        assert m.cost_w(burst, little, False) < m.cost_w(burst, big, False)


class TestDecisionMdp:
    def test_structure(self, observed_profiler):
        mdp = observed_profiler.build_decision_mdp()
        assert set(mdp.actions) == {"use_big", "use_little"}
        assert mdp.n_states == 2 * len(observed_profiler.observed_device_keys)
        mdp.validate()

    def test_learned_policy_splits_by_burstiness(self, observed_profiler):
        mdp = observed_profiler.build_decision_mdp()
        sol = value_iteration(mdp, rho=0.9)
        play_state = (("C1", "on", "access"), "big")
        burst_state = (("C1", "on", "send"), "big")
        assert sol.policy[play_state] == "use_big"
        assert sol.policy[burst_state] == "use_little"

    def test_empty_profiler_rejected(self):
        with pytest.raises(ValueError):
            PowerProfiler().build_decision_mdp()


class TestSyscallMdp:
    def test_actions_are_class_battery_pairs(self, observed_profiler):
        mdp = observed_profiler.build_syscall_mdp()
        mdp.validate()
        assert all(isinstance(a, tuple) and len(a) == 2 for a in mdp.actions)
        battery_halves = {a[1] for a in mdp.actions}
        assert battery_halves == {"big", "LITTLE"}

    def test_solvable(self, observed_profiler):
        mdp = observed_profiler.build_syscall_mdp()
        sol = value_iteration(mdp, rho=0.8)
        assert all(v >= 0.0 for v in sol.values.values())


class TestDeviceKeyCache:
    def test_memoised_derivation_counts_hits(self):
        from repro.capman.profiler import _device_key_cached

        demand = DemandSlice(cpu_util=42.0, screen_on=True, wifi_kbps=7.0)
        before = _device_key_cached.cache_info()
        first = device_key_of(demand)
        again = device_key_of(demand)
        after = _device_key_cached.cache_info()
        assert first == again
        assert after.hits >= before.hits + 1

    def test_threshold_is_part_of_the_key(self):
        demand = DemandSlice(cpu_util=42.0, wifi_kbps=500.0)
        low = device_key_of(demand, wifi_threshold_kbps=100.0)
        high = device_key_of(demand, wifi_threshold_kbps=1000.0)
        # 500 kbps counts as "send" under the low threshold only.
        assert low == ("C1", "off", "send")
        assert high == ("C1", "off", "access")
