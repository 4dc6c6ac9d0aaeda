"""End-to-end smoke and behaviour tests across the whole stack."""

import pytest

from repro import SimulationConfig, Simulator
from repro.core.registry import detector_names
from repro.traffic.patterns import pattern_names


def run_config(**kwargs):
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        warmup_cycles=150,
        measure_cycles=600,
        seed=21,
    )
    config.traffic.injection_rate = 0.4
    for key, value in kwargs.items():
        if key.startswith("traffic_"):
            setattr(config.traffic, key[len("traffic_"):], value)
        elif key.startswith("detector_"):
            setattr(config.detector, key[len("detector_"):], value)
        else:
            setattr(config, key, value)
    sim = Simulator(config)
    stats = sim.run()
    sim.check_invariants()
    return sim, stats


class TestEveryDetector:
    @pytest.mark.parametrize("mechanism", detector_names())
    def test_runs_clean(self, mechanism):
        _, stats = run_config(detector_mechanism=mechanism)
        assert stats.delivered_measured > 0

    @pytest.mark.parametrize("mechanism", ["ndm", "pdm", "timeout"])
    def test_detections_consistent(self, mechanism):
        _, stats = run_config(
            detector_mechanism=mechanism, detector_threshold=8
        )
        assert stats.messages_detected <= stats.detections
        assert (
            stats.true_detections
            + stats.false_detections
            + stats.unclassified_detections
            == stats.detections
        )


class TestEveryPattern:
    @pytest.mark.parametrize("pattern", pattern_names())
    def test_runs_clean(self, pattern):
        kwargs = {"traffic_pattern": pattern, "traffic_injection_rate": 0.15}
        if pattern in ("bit-reversal", "perfect-shuffle", "butterfly"):
            kwargs["radix"] = 4  # 16 = 2**4 nodes
        _, stats = run_config(**kwargs)
        assert stats.delivered_measured > 0

    def test_hotspot_concentrates_traffic(self):
        sim, stats = run_config(
            traffic_pattern="hot-spot",
            traffic_pattern_params={"fraction": 0.5, "hot_node": 0},
            traffic_injection_rate=0.1,
        )
        assert stats.delivered_measured > 0


class TestEverySize:
    @pytest.mark.parametrize("size", ["s", "l", "L", "sl"])
    def test_runs_clean(self, size):
        _, stats = run_config(
            traffic_lengths=size, traffic_injection_rate=0.2,
            measure_cycles=900,
        )
        assert stats.delivered_measured > 0


class TestRoutingBaselines:
    def test_dimension_order_never_deadlocks_on_mesh(self):
        _, stats = run_config(
            topology="mesh",
            routing="dimension-order",
            detector_mechanism="none",
            recovery="none",
            traffic_injection_rate=0.25,
            ground_truth_interval=50,
        )
        assert stats.truth_sweeps_with_deadlock == 0
        assert stats.delivered_measured > 0

    def test_adaptive_beats_deterministic_latency(self):
        lat = {}
        for routing in ("fully-adaptive", "dimension-order"):
            _, stats = run_config(routing=routing, traffic_injection_rate=0.5,
                                  measure_cycles=1200)
            lat[routing] = stats.average_latency()
        assert lat["fully-adaptive"] <= lat["dimension-order"] * 1.35


class TestStress:
    def test_oversaturated_with_recovery_stays_live(self):
        _, stats = run_config(
            traffic_injection_rate=1.2,
            detector_threshold=16,
            measure_cycles=1200,
            injection_limit_fraction=0.65,
        )
        # The network keeps delivering under 2x saturation overload.
        assert stats.throughput() > 0.3

    def test_single_vc_network_deadlocks_and_recovers(self):
        """1 VC per channel deadlocks easily; detection+recovery keeps
        every message flowing."""
        sim, stats = run_config(
            vcs_per_channel=1,
            traffic_injection_rate=0.5,
            detector_threshold=16,
            measure_cycles=2500,
            ground_truth_interval=100,
        )
        assert stats.delivered_measured > 0
        # Whatever was detected, nothing may remain deadlocked at the end.
        from repro.analysis.deadlock import find_deadlocked

        leftover = find_deadlocked(sim.active_messages)
        assert len(leftover) == 0 or stats.detections > 0

    def test_no_recovery_oversaturated_eventually_wedges(self):
        sim, stats = run_config(
            vcs_per_channel=1,
            traffic_injection_rate=0.8,
            detector_mechanism="none",
            recovery="none",
            injection_limit_fraction=None,
            measure_cycles=2500,
            ground_truth_interval=100,
        )
        # With no escape mechanism the single-VC adaptive network reaches
        # a true deadlock (this is why recovery is needed at all).
        assert stats.truth_sweeps_with_deadlock > 0
