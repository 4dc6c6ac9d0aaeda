"""Tests for the statistics container and derived metrics."""

from repro.metrics.stats import SimulationStats
from repro.network.types import DetectionEvent


def make_stats(**overrides) -> SimulationStats:
    stats = SimulationStats(
        cycles_run=6000,
        warmup_cycles=1000,
        measure_cycles=5000,
        num_nodes=64,
    )
    for key, value in overrides.items():
        setattr(stats, key, value)
    return stats


class TestDetectionPercentage:
    def test_zero_when_nothing_injected(self):
        assert make_stats().detection_percentage() == 0.0

    def test_counts_unique_messages(self):
        stats = make_stats(
            injected_measured=1000,
            detections_measured=30,
            messages_detected_measured=10,
        )
        assert stats.detection_percentage() == 1.0


class TestThroughputAndLatency:
    def test_throughput_flits_per_cycle_per_node(self):
        stats = make_stats(flits_delivered_measured=64 * 5000 // 2)
        assert stats.throughput() == 0.5

    def test_throughput_zero_without_window(self):
        stats = SimulationStats()
        assert stats.throughput() == 0.0

    def test_average_latency(self):
        stats = make_stats(latency_sum=1000, latency_count=10)
        assert stats.average_latency() == 100.0

    def test_average_latency_none_without_samples(self):
        assert make_stats().average_latency() is None

    def test_network_latency(self):
        stats = make_stats(network_latency_sum=500, latency_count=10)
        assert stats.average_network_latency() == 50.0


class TestDeadlockIndicators:
    def test_had_true_deadlock_from_detection(self):
        assert make_stats(true_detections=1).had_true_deadlock()

    def test_had_true_deadlock_from_sweep(self):
        assert make_stats(truth_sweeps_with_deadlock=2).had_true_deadlock()

    def test_no_deadlock_by_default(self):
        assert not make_stats().had_true_deadlock()


class TestSummary:
    def test_summary_mentions_key_numbers(self):
        stats = make_stats(
            injected_measured=123,
            delivered_measured=120,
            messages_detected_measured=2,
            detections_measured=2,
            injected=200,
            delivered=195,
        )
        text = stats.summary()
        assert "123" in text
        assert "throughput" in text
        assert "detections" in text

    def test_summary_handles_empty_run(self):
        assert "n/a" in SimulationStats().summary()


class TestSerialization:
    def full_stats(self) -> SimulationStats:
        stats = make_stats(
            injected_measured=1000,
            flits_delivered_measured=5678,
            messages_detected_measured=10,
            detections_measured=30,
            true_detections=3,
            false_detections=7,
            latency_sum=12345,
            latency_count=100,
        )
        stats.detection_events.append(
            DetectionEvent(cycle=1200, message_id=42, node=7,
                           mechanism="ndm", truly_deadlocked=True)
        )
        stats.detection_events.append(
            DetectionEvent(cycle=1300, message_id=43, node=8,
                           mechanism="ndm", truly_deadlocked=None)
        )
        return stats

    def test_round_trip_exact(self):
        stats = self.full_stats()
        rebuilt = SimulationStats.from_dict(stats.to_dict())
        assert rebuilt == stats

    def test_perf_fields_are_dataclass_fields(self):
        # to_dict(include_perf=False) deletes them by name from asdict().
        import dataclasses

        declared = {f.name for f in dataclasses.fields(SimulationStats)}
        assert set(SimulationStats.PERF_FIELDS) <= declared

    def test_round_trip_through_json(self):
        import json

        stats = self.full_stats()
        wire = json.loads(json.dumps(stats.to_dict()))
        rebuilt = SimulationStats.from_dict(wire)
        assert rebuilt == stats
        assert rebuilt.detection_events[0].truly_deadlocked is True
        assert rebuilt.detection_events[1].truly_deadlocked is None

    def test_lean_form_drops_events_only(self):
        stats = self.full_stats()
        lean = stats.to_dict(include_events=False)
        assert "detection_events" not in lean
        rebuilt = SimulationStats.from_dict(lean)
        assert rebuilt.detection_events == []
        # every derived metric the tables need survives the lean trip
        assert rebuilt.detection_percentage() == stats.detection_percentage()
        assert rebuilt.throughput() == stats.throughput()
        assert rebuilt.had_true_deadlock() == stats.had_true_deadlock()
        assert rebuilt.average_latency() == stats.average_latency()

    def test_payload_is_json_serializable(self):
        import json

        json.dumps(self.full_stats().to_dict())  # must not raise
