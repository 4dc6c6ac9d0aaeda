"""Tests for router wiring and allocation bookkeeping."""

import pytest

from repro.network.simulator import Simulator
from repro.network.types import PortKind
from tests.conftest import small_config


@pytest.fixture(scope="module")
def built_sim():
    return Simulator(small_config())


class TestWiring:
    def test_every_node_has_a_router(self, built_sim):
        assert len(built_sim.routers) == built_sim.topology.num_nodes

    def test_network_outputs_match_topology_degree(self, built_sim):
        topo = built_sim.topology
        for router in built_sim.routers:
            assert len(router.output_pc_list) == len(list(topo.neighbors(router.node)))

    def test_inputs_match_outputs_globally(self, built_sim):
        total_out = sum(len(r.output_pc_list) for r in built_sim.routers)
        total_in = sum(len(r.input_pcs) for r in built_sim.routers)
        assert total_out == total_in

    def test_output_directions_consistent(self, built_sim):
        topo = built_sim.topology
        for router in built_sim.routers:
            for direction, pc in router.output_pcs.items():
                assert pc.src_node == router.node
                assert pc.dst_node == topo.neighbor(router.node, direction)
                assert pc.kind is PortKind.NETWORK

    def test_injection_and_ejection_port_counts(self, built_sim):
        config = built_sim.config
        for router in built_sim.routers:
            assert len(router.injection_pcs) == config.injection_ports
            assert len(router.ejection_pcs) == config.ejection_ports

    def test_channel_indices_unique(self, built_sim):
        indices = [pc.index for pc in built_sim.channels]
        assert len(indices) == len(set(indices))

    def test_header_input_pcs_include_injection(self, built_sim):
        router = built_sim.routers[0]
        pcs = router.header_input_pcs()
        for pc in router.injection_pcs:
            assert pc in pcs
        for pc in router.input_pcs:
            assert pc in pcs


class TestBusyCounting:
    def test_busy_count_roundtrip(self, built_sim):
        router = built_sim.routers[0]
        before = router.busy_network_vcs
        router.note_network_vc_allocated()
        assert router.busy_network_vcs == before + 1
        router.note_network_vc_released()
        assert router.busy_network_vcs == before

    def test_negative_busy_raises(self):
        sim = Simulator(small_config())
        router = sim.routers[0]
        with pytest.raises(RuntimeError):
            router.note_network_vc_released()

    def test_total_network_vcs(self, built_sim):
        router = built_sim.routers[0]
        expected = len(router.output_pc_list) * built_sim.config.vcs_per_channel
        assert router.total_network_vcs() == expected


class TestFreeInjectionVC:
    def test_returns_free_vc(self, built_sim):
        vc = built_sim.routers[0].free_injection_vc(built_sim.lanes)
        assert vc is not None
        assert vc.pc.kind is PortKind.INJECTION

    def test_returns_none_when_full(self):
        sim = Simulator(small_config())
        router = sim.routers[0]
        for pc in router.injection_pcs:
            for vc in pc.vcs(sim.lanes):
                vc.allocate(0, 0)
        assert router.free_injection_vc(sim.lanes) is None
