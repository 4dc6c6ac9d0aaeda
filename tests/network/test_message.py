"""Tests for the worm/message representation."""

import pytest

from repro.network.channel import PhysicalChannel
from repro.network.message import Message
from repro.network.types import MessageStatus, PortKind


def make_pc(index=0, kind=PortKind.NETWORK, src=0, dst=1):
    """A two-lane channel and the flat lane list it appended its lanes to."""
    lanes = []
    return PhysicalChannel(index, kind, src, dst, (0, +1), 2, 4, lanes), lanes


class TestConstruction:
    def test_initial_state(self):
        m = Message(7, source=0, dest=5, length=16, gen_cycle=3)
        assert m.status is MessageStatus.QUEUED
        assert m.flits_at_source == 16
        assert m.flits_delivered == 0
        assert m.spans == []
        assert m.inject_node == 0

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            Message(0, 0, 1, 0, 0)

    def test_rejects_self_destination(self):
        with pytest.raises(ValueError):
            Message(0, 3, 3, 8, 0)

    def test_repr_is_informative(self):
        m = Message(1, 0, 5, 16, 0)
        assert "0->5" in repr(m)


class TestPositionQueries:
    def test_header_vc_none_at_source(self):
        m = Message(0, 0, 1, 4, 0)
        assert not m.spans
        assert m.header_router() is None
        assert m.input_pc is None

    def test_header_router_network_channel(self):
        m = Message(0, 0, 5, 4, 0)
        pc, lanes = make_pc(src=2, dst=3)
        lanes[0].allocate(m.id, 0)
        m.spans = [lanes[0]]
        assert m.header_router() == 3
        assert m.input_pc is pc

    def test_header_router_ejection_channel(self):
        m = Message(0, 0, 5, 4, 0)
        lanes = []
        PhysicalChannel(0, PortKind.EJECTION, 5, None, None, 1, 4, lanes)
        lanes[0].allocate(m.id, 0)
        m.spans = [lanes[0]]
        assert m.header_router() == 5

    def test_flits_in_network_sums_spans(self):
        m = Message(0, 0, 5, 10, 0)
        (_, a), (_, b) = make_pc(0), make_pc(1, src=1, dst=2)
        a[0].allocate(m.id, 0)
        b[0].allocate(m.id, 0)
        a[0].flits = 4
        b[0].flits = 2
        m.spans = [a[0], b[0]]
        assert m.flits_in_network() == 6


class TestBlockedPredicate:
    def _in_network_message(self):
        m = Message(0, 0, 5, 8, 0)
        m.status = MessageStatus.IN_NETWORK
        return m

    def test_not_blocked_before_first_attempt(self):
        m = self._in_network_message()
        assert not m.is_blocked()

    def test_blocked_after_failed_attempt(self):
        m = self._in_network_message()
        m.first_attempt_done = True
        assert m.is_blocked()

    def test_not_blocked_with_allocation(self):
        m = self._in_network_message()
        m.first_attempt_done = True
        m.allocated_vc = make_pc()[1][0]
        assert not m.is_blocked()

    def test_not_blocked_when_queued(self):
        m = Message(0, 0, 5, 8, 0)
        m.first_attempt_done = True
        assert not m.is_blocked()


class TestResets:
    def test_reset_routing_state(self):
        m = Message(0, 0, 5, 8, 0)
        m.first_attempt_done = True
        m.blocked_since = 10
        m.feasible_pcs = (make_pc()[0],)
        m.reset_routing_state()
        assert not m.first_attempt_done
        assert m.blocked_since is None
        assert m.feasible_pcs == ()

    def test_reset_for_reinjection(self):
        m = Message(0, 2, 5, 8, 0)
        m.status = MessageStatus.IN_NETWORK
        m.flits_at_source = 0
        m.flits_delivered = 3
        m.marked_deadlocked = True
        m.reset_for_reinjection(node=4, cycle=100)
        assert m.status is MessageStatus.QUEUED
        assert m.inject_node == 4
        assert m.source == 2  # original source preserved
        assert m.flits_at_source == m.length
        assert m.flits_delivered == 0
        assert not m.marked_deadlocked
        assert m.gen_cycle == 0  # latency still counted from generation


class TestConservation:
    def test_conservation_holds(self):
        m = Message(0, 0, 5, 10, 0)
        _, lanes = make_pc()
        lanes[0].allocate(m.id, 0)
        lanes[0].flits = 4
        m.spans = [lanes[0]]
        m.flits_at_source = 3
        m.flits_delivered = 3
        m.check_conservation()

    def test_conservation_violation_raises(self):
        m = Message(0, 0, 5, 10, 0)
        m.flits_at_source = 3
        with pytest.raises(AssertionError):
            m.check_conservation()

    def test_describe_path(self):
        m = Message(0, 0, 5, 10, 0)
        pc, lanes = make_pc()
        lanes[1].allocate(m.id, 0)
        lanes[1].flits = 2
        m.spans = [lanes[1]]
        # A span names its channel and lane; the lane names its occupant.
        (span,) = m.spans
        assert span.pc is pc and pc.lanes_by_mask[pc.free_mask] == (0,)
        assert (span.index, span.occupant, span.flits) == (1, m.id, 2)
