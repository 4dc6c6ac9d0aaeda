"""Tests for Duato-style adaptive routing with escape channels."""

import pytest

from repro.network.routing import DuatoAdaptive, make_routing_function
from repro.network.simulator import Simulator
from repro.network.topology import KAryNCube
from tests.conftest import small_config


@pytest.fixture(scope="module")
def rf():
    return DuatoAdaptive()


@pytest.fixture(scope="module")
def topo():
    return KAryNCube(8, 2)


class TestEscapeSubFunction:
    def test_escape_direction_is_dimension_order(self, rf, topo):
        cur = topo.node_at((0, 0))
        dst = topo.node_at((3, 3))
        assert rf.escape_direction(topo, cur, dst) == (0, +1)

    def test_escape_direction_second_dim_when_first_done(self, rf, topo):
        cur = topo.node_at((3, 0))
        dst = topo.node_at((3, 3))
        assert rf.escape_direction(topo, cur, dst) == (1, +1)

    def test_dateline_class_before_wrap(self, rf, topo):
        # Travelling +1 from 6 to 2 must cross the 7->0 wrap: class 0.
        cur = topo.node_at((6, 0))
        dst = topo.node_at((2, 0))
        assert rf.escape_class(topo, cur, dst, dim=0, sign=+1) == 0

    def test_dateline_class_after_wrap(self, rf, topo):
        # Travelling +1 from 0 to 2 never wraps: class 1.
        cur = topo.node_at((0, 0))
        dst = topo.node_at((2, 0))
        assert rf.escape_class(topo, cur, dst, dim=0, sign=+1) == 1

    def test_dateline_symmetric_negative(self, rf, topo):
        cur = topo.node_at((1, 0))
        dst = topo.node_at((6, 0))  # -1 direction, wraps through 0
        assert rf.escape_class(topo, cur, dst, dim=0, sign=-1) == 0

    def test_mesh_has_single_class(self, rf):
        from repro.network.topology import Mesh

        mesh = Mesh(8, 2)
        assert rf.escape_class(mesh, 1, 5, dim=0, sign=+1) == 0


class TestAllowedVCs:
    def _pc(self, sim, coords, direction):
        node = sim.topology.node_at(coords)
        return sim.routers[node].output_pcs[direction]

    def test_adaptive_lane_always_allowed(self):
        config = small_config(radix=8, routing="duato-adaptive")
        config.detector.mechanism = "none"
        sim = Simulator(config)
        rf = sim.routing_fn
        pc = self._pc(sim, (0, 0), (1, +1))  # non-escape direction
        cur = sim.topology.node_at((0, 0))
        dst = sim.topology.node_at((3, 3))
        vcs = pc.vcs(sim.lanes)
        lanes = rf.allowed_vcs(sim.topology, pc, vcs, cur, dst)
        assert vcs[2] in lanes
        assert vcs[0] not in lanes  # escape lane of a non-escape PC

    def test_escape_lane_on_dimension_order_pc(self):
        config = small_config(radix=8, routing="duato-adaptive")
        config.detector.mechanism = "none"
        sim = Simulator(config)
        rf = sim.routing_fn
        pc = self._pc(sim, (0, 0), (0, +1))  # the DOR next hop
        cur = sim.topology.node_at((0, 0))
        dst = sim.topology.node_at((3, 3))
        vcs = pc.vcs(sim.lanes)
        lanes = rf.allowed_vcs(sim.topology, pc, vcs, cur, dst)
        assert vcs[2] in lanes
        assert vcs[1] in lanes  # class 1 (no wrap on 0 -> 3)
        assert vcs[0] not in lanes

    def test_injection_ports_unrestricted(self):
        config = small_config(radix=8, routing="duato-adaptive")
        config.detector.mechanism = "none"
        sim = Simulator(config)
        rf = sim.routing_fn
        pc = sim.routers[0].injection_pcs[0]
        vcs = pc.vcs(sim.lanes)
        assert list(rf.allowed_vcs(sim.topology, pc, vcs, 0, 5)) == list(vcs)


class TestDeadlockFreedom:
    @pytest.mark.parametrize("rate", [0.3, 0.7])
    def test_never_deadlocks(self, rate):
        config = small_config(routing="duato-adaptive")
        config.traffic.injection_rate = rate
        config.detector.mechanism = "none"
        config.recovery = "none"
        config.ground_truth_interval = 50
        config.warmup_cycles = 200
        config.measure_cycles = 1500
        sim = Simulator(config)
        stats = sim.run()
        assert stats.truth_sweeps_with_deadlock == 0
        assert stats.delivered_measured > 0

    def test_factory_name(self):
        assert isinstance(
            make_routing_function("duato-adaptive"), DuatoAdaptive
        )
        assert not DuatoAdaptive.deadlock_prone
        assert DuatoAdaptive.uses_vc_classes


class TestRecoveryVsAvoidance:
    def test_fully_adaptive_with_recovery_outperforms(self):
        """The paper's motivation: unrestricted routing + recovery beats
        escape-channel avoidance at moderate-high load, in latency and
        without giving up throughput."""
        results = {}
        for routing in ("fully-adaptive", "duato-adaptive"):
            config = small_config(radix=8, routing=routing)
            config.warmup_cycles = 400
            config.measure_cycles = 2000
            config.traffic.injection_rate = 0.6
            if routing == "duato-adaptive":
                config.detector.mechanism = "none"
                config.recovery = "none"
            results[routing] = Simulator(config).run()
        adaptive, duato = results["fully-adaptive"], results["duato-adaptive"]
        assert adaptive.average_latency() <= duato.average_latency() * 1.1
        assert adaptive.throughput() >= duato.throughput() - 0.02
