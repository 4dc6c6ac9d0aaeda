"""Basic simulator behaviour: delivery, latency, conservation, determinism."""

import pytest

from repro.network.simulator import Simulator
from repro.network.types import MessageStatus
from tests.conftest import small_config


def single_message_config(**overrides):
    """A configuration that generates no traffic (messages placed by hand)."""
    config = small_config(**overrides)
    config.traffic.injection_rate = 0.0
    config.ground_truth_interval = 0
    return config


def send_one(sim, source, dest, length):
    """Enqueue one message at a node's source queue."""
    from repro.network.message import Message

    m = Message(sim._next_message_id, source, dest, length, sim.cycle)
    sim._next_message_id += 1
    sim.enqueue_source(m, source)
    return m


class TestSingleMessageDelivery:
    def test_message_delivered(self):
        sim = Simulator(single_message_config())
        m = send_one(sim, 0, 5, 8)
        for _ in range(200):
            sim.step()
        assert m.status is MessageStatus.DELIVERED
        assert m.flits_delivered == m.length

    def test_all_channels_freed_after_delivery(self):
        sim = Simulator(single_message_config())
        send_one(sim, 0, 5, 8)
        for _ in range(200):
            sim.step()
        for pc in sim.channels:
            assert pc.occupied_count == 0

    def test_no_load_latency_close_to_distance_plus_length(self):
        sim = Simulator(single_message_config())
        dest = sim.topology.node_at((2, 2))
        m = send_one(sim, 0, dest, 8)
        for _ in range(200):
            sim.step()
        latency = m.deliver_cycle - m.gen_cycle
        ideal = sim.topology.distance(0, dest) + m.length
        # 1-cycle-per-hop pipeline with injection/routing overhead.
        assert ideal <= latency <= ideal + 12

    def test_longer_message_takes_longer(self):
        times = []
        for length in (4, 32):
            sim = Simulator(single_message_config())
            m = send_one(sim, 0, 5, length)
            for _ in range(300):
                sim.step()
            times.append(m.deliver_cycle)
        assert times[1] > times[0]

    def test_single_flit_message(self):
        sim = Simulator(single_message_config())
        m = send_one(sim, 0, 1, 1)
        for _ in range(50):
            sim.step()
        assert m.status is MessageStatus.DELIVERED

    def test_message_longer_than_path_buffers(self):
        sim = Simulator(single_message_config())
        m = send_one(sim, 0, 1, 100)
        for _ in range(300):
            sim.step()
        assert m.status is MessageStatus.DELIVERED


class TestConservationInvariants:
    def test_invariants_hold_throughout_run(self):
        config = small_config()
        config.traffic.injection_rate = 0.3
        sim = Simulator(config)
        for _ in range(300):
            sim.step()
            if sim.cycle % 50 == 0:
                sim.check_invariants()

    def test_flit_accounting_at_end(self, run_sim):
        config = small_config()
        config.traffic.injection_rate = 0.2
        sim, stats = run_sim(config)
        sim.check_invariants()
        assert stats.delivered <= stats.generated
        assert stats.flits_delivered > 0

    def test_movement_loop_preconditions_are_checked(self):
        """The two facts the movement loop leans on without testing."""
        config = small_config()
        config.detector.mechanism = "ndm"
        sim = Simulator(config)
        sim.check_invariants()
        sink = sim.routers[0].ejection_pcs[0]
        sim.lanes[sink.lane0].flits = 1
        with pytest.raises(AssertionError, match="ejection lane buffers"):
            sim.check_invariants()
        sim.lanes[sink.lane0].flits = 0
        sink.i_threshold = 0
        with pytest.raises(AssertionError, match="i_threshold < 1"):
            sim.check_invariants()


class TestDeterminism:
    def test_same_seed_same_stats(self):
        def run():
            config = small_config()
            config.traffic.injection_rate = 0.25
            return Simulator(config).run()

        a, b = run(), run()
        assert a.delivered == b.delivered
        assert a.injected == b.injected
        assert a.latency_sum == b.latency_sum
        assert a.detections == b.detections

    def test_different_seed_differs(self):
        def run(seed):
            config = small_config(seed=seed)
            config.traffic.injection_rate = 0.25
            return Simulator(config).run()

        a, b = run(1), run(2)
        assert (a.delivered, a.latency_sum) != (b.delivered, b.latency_sum)


class TestMeasurementWindow:
    def test_measured_counts_below_totals(self, run_sim):
        config = small_config()
        config.traffic.injection_rate = 0.2
        _, stats = run_sim(config)
        assert stats.injected_measured <= stats.injected
        assert stats.delivered_measured <= stats.delivered

    def test_zero_rate_runs_clean(self, run_sim):
        config = small_config()
        config.traffic.injection_rate = 0.0
        _, stats = run_sim(config)
        assert stats.generated == 0
        assert stats.throughput() == 0.0

    def test_drain_phase_empties_network(self):
        config = small_config()
        config.traffic.injection_rate = 0.2
        config.drain_cycles = 3000
        sim = Simulator(config)
        sim.run()
        assert sim.message_count_in_network() == 0

    def test_cycles_run_recorded(self, run_sim):
        config = small_config()
        _, stats = run_sim(config)
        assert stats.cycles_run == config.warmup_cycles + config.measure_cycles


class TestThroughputTracksOfferedLoad:
    @pytest.mark.parametrize("rate", [0.05, 0.15, 0.3])
    def test_accepted_matches_offered_below_saturation(self, rate, run_sim):
        # Pooled over three seeds: one 1,500-cycle run on 16 nodes strays
        # past 25 % about once in thirty seeds at these loads.
        accepted = []
        for seed in (123, 124, 125):
            config = small_config(seed=seed)
            config.warmup_cycles = 300
            config.measure_cycles = 1500
            config.traffic.injection_rate = rate
            _, stats = run_sim(config)
            accepted.append(stats.throughput())
        assert sum(accepted) / len(accepted) == pytest.approx(rate, rel=0.25)

    def test_latency_grows_with_load(self, run_sim):
        lats = []
        for rate in (0.05, 0.45):
            config = small_config()
            config.warmup_cycles = 300
            config.measure_cycles = 1500
            config.traffic.injection_rate = rate
            _, stats = run_sim(config)
            lats.append(stats.average_latency())
        assert lats[1] > lats[0]
