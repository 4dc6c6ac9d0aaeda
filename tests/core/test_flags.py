"""Tests for the derived flag views (paper Figs. 1 and 6)."""

from repro.core.flags import ChannelFlagView, PDMFlagView
from repro.network.channel import PhysicalChannel
from repro.network.types import GPState, PortKind


def make_pc():
    """A three-lane channel and the flat lane list it appended them to."""
    lanes = []
    return PhysicalChannel(0, PortKind.NETWORK, 0, 1, (0, +1), 3, 4, lanes), lanes


class TestChannelFlagView:
    def test_counter_mirrors_inactivity(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        view = ChannelFlagView(pc, t1=1, t2=8)
        assert view.counter(5) == 5

    def test_i_flag_transitions_at_t1(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        view = ChannelFlagView(pc, t1=1, t2=8)
        assert not view.i_flag(1)
        assert view.i_flag(2)

    def test_dt_flag_transitions_at_t2(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        view = ChannelFlagView(pc, t1=1, t2=8)
        assert not view.dt_flag(8)
        assert view.dt_flag(9)

    def test_i_implies_not_dt_before_t2(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        view = ChannelFlagView(pc, t1=1, t2=8)
        assert view.i_flag(5) and not view.dt_flag(5)

    def test_flit_clears_both(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        pc.record_flit(20, None)
        view = ChannelFlagView(pc, t1=1, t2=8)
        assert not view.i_flag(20)
        assert not view.dt_flag(20)

    def test_unoccupied_channel_flags_clear_initially(self):
        view = ChannelFlagView(make_pc()[0], t1=1, t2=8)
        assert not view.i_flag(100)
        assert not view.dt_flag(100)

    def test_gp_flag_reads_channel_state(self):
        pc, lanes = make_pc()
        view = ChannelFlagView(pc)
        assert view.gp_flag() is GPState.PROPAGATE
        pc.gp = GPState.GENERATE
        assert view.gp_flag() is GPState.GENERATE


class TestPDMFlagView:
    def test_if_flag_transitions_at_threshold(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        view = PDMFlagView(pc, threshold=16)
        assert not view.if_flag(16)
        assert view.if_flag(17)

    def test_if_flag_cleared_by_flit(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        pc.record_flit(30, None)
        view = PDMFlagView(pc, threshold=16)
        assert not view.if_flag(31)

    def test_counter_exposed(self):
        pc, lanes = make_pc()
        lanes[0].allocate(1, 0)
        assert PDMFlagView(pc).counter(7) == 7
