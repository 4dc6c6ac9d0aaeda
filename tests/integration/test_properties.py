"""Property-based tests over randomized configurations (hypothesis)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, Simulator
from repro.analysis.deadlock import find_deadlocked
from repro.network.types import MessageStatus

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


config_strategy = st.fixed_dictionaries(
    {
        "radix": st.sampled_from([4, 8]),
        "dimensions": st.sampled_from([1, 2]),
        "vcs_per_channel": st.integers(min_value=1, max_value=3),
        "buffer_depth": st.integers(min_value=1, max_value=6),
        "injection_ports": st.integers(min_value=1, max_value=3),
        "rate": st.floats(min_value=0.02, max_value=0.5),
        "length": st.sampled_from(["s", "l", "sl"]),
        "mechanism": st.sampled_from(["ndm", "pdm", "timeout", "none"]),
        "threshold": st.sampled_from([4, 16, 64]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build(params) -> Simulator:
    config = SimulationConfig(
        radix=params["radix"],
        dimensions=params["dimensions"],
        vcs_per_channel=params["vcs_per_channel"],
        buffer_depth=params["buffer_depth"],
        injection_ports=params["injection_ports"],
        warmup_cycles=50,
        measure_cycles=250,
        seed=params["seed"],
        ground_truth_interval=0,
    )
    config.traffic.injection_rate = params["rate"]
    config.traffic.lengths = params["length"]
    config.detector.mechanism = params["mechanism"]
    config.detector.threshold = params["threshold"]
    return Simulator(config)


class TestConservationProperties:
    @given(config_strategy)
    @SLOW
    def test_invariants_after_random_run(self, params):
        sim = build(params)
        sim.run()
        sim.check_invariants()

    @given(config_strategy)
    @SLOW
    def test_flit_ledger_balances(self, params):
        sim = build(params)
        stats = sim.run()
        in_flight = sum(
            m.flits_in_network()
            for m in sim.active_messages
            if m.status is MessageStatus.IN_NETWORK
        )
        assert stats.delivered <= stats.injected + 1
        assert in_flight >= 0

    @given(config_strategy)
    @SLOW
    def test_detection_counters_consistent(self, params):
        stats = build(params).run()
        assert stats.messages_detected <= stats.detections
        assert stats.detections_measured <= stats.detections
        assert stats.recoveries + stats.aborts <= stats.detections


class TestMonitorProperties:
    @given(config_strategy)
    @SLOW
    def test_inactivity_never_negative(self, params):
        sim = build(params)
        for _ in range(150):
            sim.step()
        cycle = sim.cycle
        for pc in sim.channels:
            assert pc.inactivity(cycle) >= 0

    @given(config_strategy)
    @SLOW
    def test_occupancy_counts_match_reality(self, params):
        sim = build(params)
        for _ in range(200):
            sim.step()
        for pc in sim.channels:
            actual = sum(1 for vc in pc.vcs(sim.lanes) if vc.occupant is not None)
            assert pc.occupied_count == actual


class TestDeterminismProperty:
    @given(config_strategy)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_replay_identical(self, params):
        a = build(params).run()
        b = build(params).run()
        assert a.delivered == b.delivered
        assert a.detections == b.detections
        assert a.latency_sum == b.latency_sum


class TestGroundTruthProperties:
    @given(config_strategy)
    @SLOW
    def test_deadlocked_set_is_closed(self, params):
        """Every feasible VC of a deadlocked message is held inside the set."""
        sim = build(params)
        for _ in range(250):
            sim.step()
        deadlocked = find_deadlocked(sim.active_messages)
        ids = {m.id for m in deadlocked}
        for m in deadlocked:
            for pc in m.feasible_pcs:
                for vc in pc.vcs(sim.lanes):
                    assert vc.occupant is not None
                    assert vc.occupant in ids

    @given(config_strategy)
    @SLOW
    def test_non_blocked_messages_never_deadlocked(self, params):
        sim = build(params)
        for _ in range(250):
            sim.step()
        deadlocked = find_deadlocked(sim.active_messages)
        for m in deadlocked:
            assert m.is_blocked()
