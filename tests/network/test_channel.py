"""Tests for virtual/physical channels and the inactivity monitor."""

from types import SimpleNamespace

import pytest

from repro.core.detector import CounterDetector
from repro.network.channel import NEVER, PhysicalChannel
from repro.network.types import PortKind


def make_pc(num_vcs=3, depth=4, kind=PortKind.NETWORK):
    """A channel and the flat lane list it appended its lanes to."""
    lanes = []
    return PhysicalChannel(0, kind, 0, 1, (0, +1), num_vcs, depth, lanes), lanes


def waiting_on(*pcs):
    """A blocked message whose feasible outputs are ``pcs``: all the
    counter rule reads of it."""
    return SimpleNamespace(feasible_pcs=list(pcs))


class HookSpy:
    """Stands in for the simulator: its detector's I-reset calls land here."""

    def __init__(self):
        self.detector = self
        self.fired = []

    def on_i_reset(self, sim, pc, cycle):
        self.fired.append(cycle)


class TestVirtualChannel:
    def test_starts_free(self):
        pc, lanes = make_pc()
        assert all(vc.occupant is None for vc in lanes)

    def test_allocate_sets_occupant(self):
        pc, lanes = make_pc()
        lanes[0].allocate(7, cycle=5)
        assert lanes[0].occupant == 7  # the message id, not the message
        assert lanes[0].occupant is not None

    def test_double_allocate_raises(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        with pytest.raises(RuntimeError):
            lanes[0].allocate(2, cycle=1)

    def test_release_clears_occupant_and_flits(self):
        pc, lanes = make_pc()
        vc = lanes[0]
        vc.allocate(1, cycle=0)
        vc.flits = 3
        vc.release(cycle=10)
        assert vc.occupant is None
        assert vc.flits == 0

    def test_release_free_channel_raises(self):
        pc, lanes = make_pc()
        with pytest.raises(RuntimeError):
            lanes[0].release(cycle=0)

    def test_capacity_recorded(self):
        pc, lanes = make_pc(depth=7)
        assert all(vc.capacity == 7 for vc in lanes)


class TestOccupancyCounting:
    def test_occupied_count_tracks_allocations(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        lanes[1].allocate(2, 0)
        assert pc.occupied_count == 2
        lanes[0].release(5)
        assert pc.occupied_count == 1

    def test_has_free_vc(self):
        pc, lanes = make_pc(num_vcs=2)
        assert pc.lanes_by_mask[pc.free_mask] == (0, 1)
        lanes[0].allocate(1, 0)
        lanes[1].allocate(2, 0)
        assert pc.lanes_by_mask[pc.free_mask] == ()

    def test_free_vcs_lists_only_free(self):
        pc, lanes = make_pc(num_vcs=3)
        lanes[1].allocate(1, 0)
        assert pc.free_lanes(lanes) == (lanes[0], lanes[2])


class TestInactivityMonitor:
    def test_unoccupied_channel_reports_frozen_zero(self):
        pc, lanes = make_pc()
        assert pc.inactivity(100) == 0

    def test_counts_from_occupancy(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=10)
        assert pc.inactivity(10) == 0
        assert pc.inactivity(15) == 5

    def test_flit_resets_counter(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(8, None)
        assert pc.inactivity(8) == 0
        assert pc.inactivity(11) == 3

    def test_second_allocation_does_not_reset(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        lanes[1].allocate(2, cycle=9)
        # Counter keeps counting from the first occupancy.
        assert pc.inactivity(10) == 10

    def test_counter_freezes_across_unoccupied_gap(self):
        # The hardware register keeps its value while the increment is
        # gated off (paper Fig. 6); crucial for the Figure 5 situation.
        pc, lanes = make_pc(num_vcs=1)
        lanes[0].allocate(1, cycle=0)
        lanes[0].release(cycle=20)  # counter frozen at 20
        assert pc.inactivity(300) == 20
        lanes[0].allocate(2, cycle=300)
        assert pc.inactivity(300) == 20
        assert pc.inactivity(305) == 25

    def test_flit_after_resume_resets(self):
        pc, lanes = make_pc(num_vcs=1)
        lanes[0].allocate(1, cycle=0)
        lanes[0].release(cycle=50)
        lanes[0].allocate(2, cycle=60)
        pc.record_flit(61, None)
        assert pc.inactivity(63) == 2

    def test_frozen_counter_small_after_active_release(self):
        pc, lanes = make_pc(num_vcs=1)
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(30, None)
        lanes[0].release(cycle=31)
        assert pc.inactivity(500) == 1

    def test_deadline_is_first_cycle_past_threshold(self):
        # DT / IF: set once the counter exceeds the threshold, not at it.
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        assert pc.inactivity_deadline(8) == 9
        assert pc.inactivity(8) == 8
        assert pc.inactivity(9) > 8


class TestCounterRule:
    """The I / DT / IF flags as the detectors read them: one counter per
    channel compared with ``> t`` (``CounterDetector.score`` /
    ``deadline``, and ``record_flit`` for I)."""

    def test_score_is_the_channel_counter(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        assert CounterDetector.score(waiting_on(pc), 5) == pc.inactivity(5) == 5

    def test_score_is_least_counter_over_outputs(self):
        a, a_lanes = make_pc()
        b, b_lanes = make_pc()
        a_lanes[0].allocate(1, cycle=0)
        b_lanes[0].allocate(2, cycle=3)
        assert CounterDetector.score(waiting_on(a, b), 7) == 4

    def test_between_t1_and_t2_only_i_holds(self):
        t1, t2 = 1, 8
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        score = CounterDetector.score(waiting_on(pc), 5)
        assert score > t1 and not score > t2
        assert pc.inactivity_deadline(t1) <= 5 < pc.inactivity_deadline(t2)

    def test_flit_clears_score_below_both_thresholds(self):
        t1, t2 = 1, 8
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(20, None)
        score = CounterDetector.score(waiting_on(pc), 20)
        assert score == 0
        assert not score > t1 and not score > t2

    def test_unoccupied_channel_never_crosses(self):
        pc, lanes = make_pc()
        msg = waiting_on(pc)
        assert CounterDetector.score(msg, 100) == 0
        assert CounterDetector.deadline(msg, 100, 1) is None
        assert CounterDetector.deadline(msg, 100, 8) is None

    def test_deadline_crosses_one_past_threshold(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        msg = waiting_on(pc)
        assert CounterDetector.deadline(msg, 0, 16) == 17
        assert not CounterDetector.score(msg, 16) > 16
        assert CounterDetector.score(msg, 17) > 16

    def test_flit_pushes_deadline_later(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        msg = waiting_on(pc)
        pc.record_flit(30, None)
        assert not CounterDetector.score(msg, 31) > 16
        assert CounterDetector.deadline(msg, 31, 16) == 47


class TestIResetHook:
    def test_hook_fires_when_inactive_channel_transmits(self):
        pc, lanes = make_pc()
        sim = HookSpy()
        pc.i_threshold = 1
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(10, sim)  # inactivity was 10 > 1 -> I flag was set
        assert sim.fired == [10]

    def test_hook_skipped_for_streaming_flits(self):
        pc, lanes = make_pc()
        sim = HookSpy()
        pc.i_threshold = 1
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(0, sim)
        pc.record_flit(1, sim)
        pc.record_flit(2, sim)
        assert sim.fired == []

    def test_hook_fires_first_cycle_past_t1(self):
        # I flag: a counter at t1 is still clear, one past it is set.
        fired = []
        for cycle in (3, 4):
            pc, lanes = make_pc()
            sim = HookSpy()
            pc.i_threshold = 3
            lanes[0].allocate(1, cycle=0)
            pc.record_flit(cycle, sim)
            fired.append(sim.fired)
        assert fired == [[], [4]]

    def test_hook_skipped_when_unoccupied(self):
        pc, lanes = make_pc()
        sim = HookSpy()
        pc.i_threshold = 1
        pc.record_flit(50, sim)
        assert sim.fired == []

    def test_no_hook_without_threshold(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, cycle=0)
        pc.record_flit(10, None)  # must not raise


class TestBookkeepingGuards:
    def test_negative_occupancy_raises(self):
        pc, lanes = make_pc()
        with pytest.raises(RuntimeError):
            pc.note_released(cycle=0)

    def test_never_sentinel_is_far_past(self):
        assert NEVER < -(10**15)

    def test_describe_kinds(self):
        assert "net" in make_pc()[0].describe()
        inj = PhysicalChannel(1, PortKind.INJECTION, None, 4, None, 1, 4, [])
        assert "inj" in inj.describe()
        ej = PhysicalChannel(2, PortKind.EJECTION, 4, None, None, 1, 4, [])
        assert "ej" in ej.describe()
