"""Registry round-trips: every detector builds, attaches and serializes.

Satellite coverage for the probe-family PR: each name in
``detector_names()`` must build via ``make_detector``, attach to a
simulator under both engines, and push its stats — including the
``oracle_*`` conformance fields and the probe transport counters —
through ``to_dict``/``from_dict`` without loss.
"""

import dataclasses

import pytest

from repro.core.registry import detector_names, make_detector
from repro.metrics.stats import SimulationStats
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator


def small_config(mechanism: str, engine: str) -> SimulationConfig:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=1,
        warmup_cycles=10,
        measure_cycles=40,
        ground_truth_interval=0,
        engine=engine,
    )
    config.detector.mechanism = mechanism
    config.detector.threshold = 8
    config.traffic.injection_rate = 0.1
    return config


@pytest.mark.parametrize("name", detector_names())
def test_every_name_builds_and_reports_its_name(name):
    detector = make_detector(DetectorConfig(mechanism=name, threshold=8))
    assert detector.name == name
    assert name in detector.describe()


@pytest.mark.parametrize("engine", ["scan", "event"])
@pytest.mark.parametrize("name", detector_names())
def test_every_name_attaches_and_runs_on_both_engines(name, engine):
    config = small_config(name, engine)
    config.validate()
    sim = Simulator(config)
    assert sim.detector.name == name
    assert not hasattr(sim.detector, "sim")  # hooks are handed the simulator
    stats = sim.run()
    assert stats.cycles_run == 50
    assert stats.engine == engine


@pytest.mark.parametrize("name", detector_names())
def test_stats_roundtrip_preserves_every_counter(name):
    config = small_config(name, "event")
    sim = Simulator(config)
    stats = sim.run()
    # Exercise the new counters even when the run itself stayed quiet:
    # the round-trip must carry nonzero values for every declared field.
    for field in dataclasses.fields(SimulationStats):
        if field.type == "int" and getattr(stats, field.name) == 0:
            setattr(stats, field.name, 7)
    rebuilt = SimulationStats.from_dict(stats.to_dict())
    assert rebuilt == stats
    assert rebuilt.to_dict() == stats.to_dict()


def test_roundtrip_covers_oracle_and_probe_fields():
    declared = {f.name for f in dataclasses.fields(SimulationStats)}
    expected_probe = {
        "probe_launches",
        "probe_hops",
        "probe_cycle_detections",
        "probe_deadend_detections",
        "probe_dropped_progress",
        "probe_dropped_dedupe",
        "probe_dropped_election",
        "probe_dropped_hops",
        "probe_dropped_overflow",
        "probe_peak_outstanding",
    }
    expected_oracle = {
        "oracle_true_positive_events",
        "oracle_false_positive_events",
        "oracle_missed_messages",
        "oracle_latency_sum",
        "oracle_latency_count",
        "oracle_latency_max",
    }
    assert expected_probe <= declared
    assert expected_oracle <= declared
    stats = SimulationStats()
    for i, field in enumerate(sorted(expected_probe | expected_oracle)):
        setattr(stats, field, i + 1)
    payload = stats.to_dict(include_events=False, include_perf=False)
    for i, field in enumerate(sorted(expected_probe | expected_oracle)):
        assert payload[field] == i + 1
    rebuilt = SimulationStats.from_dict(stats.to_dict())
    for i, field in enumerate(sorted(expected_probe | expected_oracle)):
        assert getattr(rebuilt, field) == i + 1


def test_probe_knobs_flow_through_config_roundtrip():
    config = SimulationConfig()
    config.detector.mechanism = "probe"
    config.detector.probe_max_hops = 17
    config.detector.probe_max_outstanding = 5
    rebuilt = SimulationConfig.from_dict(config.to_dict())
    assert rebuilt.detector.probe_max_hops == 17
    assert rebuilt.detector.probe_max_outstanding == 5
    detector = make_detector(rebuilt.detector)
    assert detector.transport.max_hops == 17
    assert detector.transport.max_outstanding == 5
