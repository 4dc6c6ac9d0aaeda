"""Tests for per-channel utilization analysis."""

import pytest

from repro.analysis.channels import (
    hottest_nodes,
    inactivity_histogram,
    network_occupancy,
    occupancy_by_node,
    snapshot_channels,
    stalled_channels,
)
from repro.network.simulator import Simulator
from tests.conftest import small_config


def loaded_sim(rate=0.4, cycles=300, **overrides):
    config = small_config(**overrides)
    config.traffic.injection_rate = rate
    sim = Simulator(config)
    for _ in range(cycles):
        sim.step()
    return sim


class TestSnapshots:
    def test_every_channel_snapshotted(self):
        sim = loaded_sim()
        snaps = snapshot_channels(sim)
        assert len(snaps) == len(sim.channels)

    def test_occupancy_fraction(self):
        sim = loaded_sim()
        for snap in snapshot_channels(sim):
            assert 0.0 <= snap.occupancy <= 1.0

    def test_buffered_flits_match_vcs(self):
        sim = loaded_sim()
        for snap, pc in zip(snapshot_channels(sim), sim.channels):
            assert snap.buffered_flits == sum(vc.flits for vc in pc.vcs(sim.lanes))

    def test_idle_network_all_free(self):
        sim = loaded_sim(rate=0.0, cycles=50)
        assert all(s.occupied_vcs == 0 for s in snapshot_channels(sim))


class TestOccupancyMetrics:
    def test_network_occupancy_range(self):
        sim = loaded_sim()
        assert 0.0 < network_occupancy(sim) < 1.0

    def test_idle_network_zero(self):
        sim = loaded_sim(rate=0.0, cycles=50)
        assert network_occupancy(sim) == 0.0

    def test_occupancy_by_node_covers_all_nodes(self):
        sim = loaded_sim()
        occ = occupancy_by_node(sim)
        assert set(occ) == set(range(sim.topology.num_nodes))

    def test_hottest_nodes_sorted(self):
        sim = loaded_sim()
        top = hottest_nodes(sim, count=4)
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)
        assert len(top) == 4

    def test_hotspot_pattern_heats_hot_node_region(self):
        config = small_config()
        config.traffic.pattern = "hot-spot"
        config.traffic.pattern_params = {"fraction": 0.6, "hot_node": 5}
        config.traffic.injection_rate = 0.5
        sim = Simulator(config)
        for _ in range(500):
            sim.step()
        occ = occupancy_by_node(sim)
        neighbors = [n for _, n in sim.topology.neighbors(5)]
        hot_region = max(occ[n] for n in neighbors + [5])
        others = [
            v for node, v in occ.items()
            if node != 5 and node not in neighbors
        ]
        assert hot_region >= max(others) * 0.5  # hot region among the hottest


class TestStallAnalysis:
    def test_no_stalls_when_idle(self):
        sim = loaded_sim(rate=0.0, cycles=50)
        assert stalled_channels(sim, threshold=1) == []

    def test_deadlock_scenario_stalls(self):
        from repro.figures.scenarios import build_figure3

        scenario = build_figure3("none")
        scenario.run(80)
        stalls = stalled_channels(scenario.sim, threshold=32)
        assert len(stalls) >= 4  # the four frozen cycle channels

    def test_histogram_keys_bucketed(self):
        sim = loaded_sim()
        histogram = inactivity_histogram(sim, bucket=4, cap=64)
        assert all(key % 4 == 0 for key in histogram)
        assert sum(histogram.values()) > 0

    def test_histogram_bucket_validation(self):
        sim = loaded_sim(rate=0.0, cycles=10)
        with pytest.raises(ValueError):
            inactivity_histogram(sim, bucket=0)

    def test_histogram_cap_absorbs_tail(self):
        from repro.figures.scenarios import build_figure3

        scenario = build_figure3("none")
        scenario.run(300)
        histogram = inactivity_histogram(scenario.sim, bucket=8, cap=64)
        assert max(histogram) <= 64
        assert histogram.get(64, 0) >= 4  # long-frozen deadlock channels
