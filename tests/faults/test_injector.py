"""FaultInjector edge application against live channel state.

These tests drive an idle simulator (zero injection rate) cycle by cycle
and watch the fault fields on :class:`PhysicalChannel` — the single
source of truth every simulation phase reads.
"""

import pytest

from repro.network.config import SimulationConfig
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.tracing import Tracer


def quiet_sim(faults, **overrides) -> Simulator:
    """A 4x4 torus with no traffic: only the fault schedule acts."""
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=2,
        warmup_cycles=0,
        measure_cycles=100,
        seed=1,
        ground_truth_interval=0,
        faults=faults,
    )
    config.traffic.injection_rate = 0.0
    for key, value in overrides.items():
        setattr(config, key, value)
    return Simulator(config)


def step_to(sim: Simulator, cycle: int) -> None:
    """Advance until the edges *of* ``cycle`` have been applied."""
    while sim.cycle <= cycle:
        sim.step()


FULL = 0b11  # all-lanes usable_mask for vcs_per_channel=2


class TestLinkDown:
    def test_window_downs_and_heals(self):
        fault = {"kind": "link-down", "start": 2, "end": 5, "channel": 3}
        sim = quiet_sim([fault])
        pc = sim.channels[3]
        step_to(sim, 1)
        assert pc.usable_mask == FULL and not pc.fault_down
        step_to(sim, 2)
        assert pc.usable_mask == 0 and pc.fault_down
        step_to(sim, 4)
        assert pc.usable_mask == 0
        step_to(sim, 5)
        assert pc.usable_mask == FULL and not pc.fault_down
        assert sim.stats.fault_edges == 2

    def test_overlapping_windows_refcount(self):
        faults = [
            {"kind": "link-down", "start": 2, "end": 10, "channel": 3},
            {"kind": "link-down", "start": 5, "end": 7, "channel": 3},
        ]
        sim = quiet_sim(faults)
        pc = sim.channels[3]
        step_to(sim, 7)  # inner window ended; outer still covers
        assert pc.fault_down
        step_to(sim, 9)
        assert pc.fault_down
        step_to(sim, 10)
        assert not pc.fault_down and pc.usable_mask == FULL

    def test_out_of_range_channel_rejected(self):
        sim_channels = len(quiet_sim(None).channels)
        fault = {
            "kind": "link-down", "start": 0, "end": 5,
            "channel": sim_channels,
        }
        with pytest.raises(ValueError, match="channels"):
            quiet_sim([fault])


class TestVcStuck:
    def test_only_target_lane_masked(self):
        fault = {
            "kind": "vc-stuck", "start": 1, "end": 4, "channel": 6, "lane": 1,
        }
        sim = quiet_sim([fault])
        pc = sim.channels[6]
        step_to(sim, 1)
        assert pc.stuck_mask == 0b10
        assert pc.usable_mask == 0b01
        assert pc.lanes_by_mask[pc.free_mask & pc.usable_mask] == (0,)
        step_to(sim, 4)
        assert pc.stuck_mask == 0 and pc.usable_mask == FULL

    def test_out_of_range_lane_rejected(self):
        fault = {
            "kind": "vc-stuck", "start": 0, "end": 5, "channel": 0, "lane": 2,
        }
        with pytest.raises(ValueError, match="lanes"):
            quiet_sim([fault])


class TestRouterStall:
    def test_all_driven_channels_down(self):
        fault = {"kind": "router-stall", "start": 3, "end": 8, "node": 5}
        sim = quiet_sim([fault])
        router = sim.routers[5]
        targets = (
            list(router.output_pc_list)
            + list(router.ejection_pcs)
            + list(router.injection_pcs)
        )
        step_to(sim, 3)
        assert targets and all(pc.fault_down for pc in targets)
        untouched = [pc for pc in sim.channels if pc not in targets]
        assert all(not pc.fault_down for pc in untouched)
        step_to(sim, 8)
        assert all(not pc.fault_down for pc in targets)

    def test_out_of_range_node_rejected(self):
        fault = {"kind": "router-stall", "start": 0, "end": 5, "node": 16}
        with pytest.raises(ValueError, match="nodes"):
            quiet_sim([fault])


class TestCounterFaults:
    def test_lag_applied_once_and_cleared_by_flit(self):
        fault = {
            "kind": "counter-lag", "start": 2, "end": 3, "channel": 4, "lag": 9,
        }
        sim = quiet_sim([fault])
        pc = sim.channels[4]
        step_to(sim, 2)
        assert pc.counter_lag == 9
        pc.note_occupied(sim.cycle)  # counter only advances while occupied
        pc.record_flit(sim.cycle + 1, sim)  # the next flit clears the lag
        assert pc.counter_lag == 0

    def test_lag_cleared_by_a_body_flit_of_a_passing_worm(self):
        """The movement loop inlines ``record_flit`` at the body-flit hop;
        its copy has to clear the lag as the method does."""
        link = next(
            pc.index
            for pc in quiet_sim([]).channels
            if (pc.src_node, pc.dst_node) == (0, 1)
        )
        fault = {
            "kind": "counter-lag", "start": 12, "end": 13, "channel": link,
            "lag": 9,
        }
        sim = quiet_sim([fault])
        sim.enqueue_source(Message(0, 0, 1, 40, 0), 0)
        pc = sim.channels[link]
        step_to(sim, 15)
        # The fault landed (before cycle 12's phases), flits kept crossing
        # the link, and the first of them took the lag with it.
        assert sim.stats.fault_edges == 1
        assert pc.last_flit_cycle == 15
        assert pc.counter_lag == 0

    def test_lag_delays_inactivity_reading(self):
        fault = {
            "kind": "counter-lag", "start": 5, "end": 6, "channel": 4, "lag": 6,
        }
        sim = quiet_sim([fault])
        pc = sim.channels[4]
        pc.note_occupied(0)
        step_to(sim, 5)
        # Without the fault the reading at cycle 10 would be 10 cycles.
        assert pc.inactivity(10) == 4
        # The lag only postpones the threshold crossing, never advances it.
        assert pc.inactivity_deadline(8) == 0 + 8 + 1 + 6

    def test_freeze_holds_reading_while_occupied_then_resumes(self):
        fault = {
            "kind": "counter-freeze", "start": 6, "end": 12, "channel": 4,
        }
        sim = quiet_sim([fault])
        pc = sim.channels[4]
        pc.note_occupied(5)
        step_to(sim, 11)
        # Reading at window entry (cycle 6) was 1; it held there all window.
        assert pc.inactivity(11) == 1
        step_to(sim, 14)
        assert pc.inactivity(14) == 4  # resumed advancing after the thaw

    def test_freeze_is_inert_while_unoccupied(self):
        fault = {
            "kind": "counter-freeze", "start": 2, "end": 20, "channel": 4,
        }
        sim = quiet_sim([fault])
        pc = sim.channels[4]
        step_to(sim, 15)
        assert pc.counter_lag == 0


class TestObservability:
    def test_edges_traced(self):
        faults = [
            {"kind": "link-down", "start": 2, "end": 5, "channel": 3},
            {"kind": "counter-lag", "start": 4, "end": 5, "channel": 0,
             "lag": 2},
        ]
        sim = quiet_sim(faults)
        sim.tracer = Tracer(capacity=0)
        step_to(sim, 6)
        events = sim.tracer.of_kind("fault")
        assert ("fault", 2, -1, 3, "link-down", 0) in events
        assert ("fault", 4, -1, 0, "counter-lag", 2) in events
        assert ("fault", 5, -1, 3, "link-up", 0) in events
        assert sim.stats.fault_edges == len(events) == 3

    def test_invariants_hold_through_edges(self):
        faults = [
            {"kind": "link-down", "start": 1, "end": 4, "channel": 2},
            {"kind": "vc-stuck", "start": 2, "end": 6, "channel": 2,
             "lane": 0},
        ]
        sim = quiet_sim(faults)
        for _ in range(10):
            sim.step()
            sim.check_invariants()
