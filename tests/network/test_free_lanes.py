"""Unit tests for the incremental free-lane structure.

Every :class:`PhysicalChannel` maintains ``free_mask`` (bit ``i`` set iff
lane ``i`` is unoccupied) as two integer ops in VirtualChannel
allocate/release, plus a ``lanes_by_mask`` table — one per channel width,
shared by every channel of that width — mapping each mask to its lane
indices in lane-index order.  The contract: for any allocate/release
history, ``free_lanes`` must equal what a fresh scan of the channel's
lanes would collect — in the same order, because routing picks a lane by position
with ``rng.choice`` and a different order would shift which lane a draw
lands on and break bit-identical equivalence with the scan engine.  The
routing tests at the end pin that draw directly: the lane
``Simulator._attempt_route`` picks is the lane ``rng.choice`` over the
concatenated free lanes of its candidates picks, for a seeded
``random.Random`` and for the verifier's scripted draws alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typing import List, Tuple

from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import SimulationConfig
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus, PortKind
from repro.verify.choices import ChoiceLog, ScriptedRNG


def make_pc(num_vcs: int) -> Tuple[PhysicalChannel, List[VirtualChannel]]:
    """A channel and the flat lane list it appended its lanes to."""
    lanes: List[VirtualChannel] = []
    pc = PhysicalChannel(
        index=0,
        kind=PortKind.NETWORK,
        src_node=0,
        dst_node=1,
        direction=(0, 1),
        num_vcs=num_vcs,
        buffer_depth=4,
        lanes=lanes,
    )
    return pc, lanes


def make_message(i: int) -> Message:
    return Message(message_id=i, source=0, dest=1, length=4, gen_cycle=0)


def scan_free(pc: PhysicalChannel, lanes):
    """What the pre-change code computed every routing attempt."""
    return tuple(vc for vc in pc.vcs(lanes) if vc.occupant is None)


def assert_consistent(pc: PhysicalChannel, lanes) -> None:
    free = scan_free(pc, lanes)
    assert pc.free_lanes(lanes) == free
    assert bin(pc.free_mask).count("1") == len(free)
    assert pc.occupied_count == pc.num_vcs - len(free)
    indices = tuple(vc.index for vc in free)
    assert pc.lanes_by_mask[pc.free_mask] == indices


# ----------------------------------------------------------------------
# Table construction
# ----------------------------------------------------------------------
def test_initial_state_all_free():
    pc, lanes = make_pc(3)
    assert pc.free_mask == 0b111
    assert pc.free_lanes(lanes) == tuple(lanes)
    assert_consistent(pc, lanes)


def test_mask_table_entries_are_in_lane_index_order():
    pc, _ = make_pc(4)
    assert len(pc.lanes_by_mask) == 16
    for mask, lanes in enumerate(pc.lanes_by_mask):
        assert list(lanes) == [i for i in range(4) if mask & (1 << i)]
        assert list(lanes) == sorted(lanes)


# ----------------------------------------------------------------------
# Allocate / release maintenance
# ----------------------------------------------------------------------
def test_allocate_release_updates_mask():
    pc, lanes = make_pc(3)
    lanes[1].allocate(0, cycle=0)
    assert pc.free_mask == 0b101
    assert [vc.index for vc in pc.free_lanes(lanes)] == [0, 2]
    lanes[0].allocate(1, cycle=0)
    assert pc.free_mask == 0b100
    assert [vc.index for vc in pc.free_lanes(lanes)] == [2]
    lanes[1].release(cycle=2)
    assert pc.free_mask == 0b110
    assert [vc.index for vc in pc.free_lanes(lanes)] == [1, 2]
    assert_consistent(pc, lanes)


def test_double_allocate_and_double_release_still_raise():
    pc, lanes = make_pc(2)
    lanes[0].allocate(0, cycle=0)
    with pytest.raises(RuntimeError):
        lanes[0].allocate(1, cycle=0)
    lanes[0].release(cycle=1)
    with pytest.raises(RuntimeError):
        lanes[0].release(cycle=1)
    assert_consistent(pc, lanes)


@pytest.mark.parametrize("num_vcs", [1, 2, 3, 8, 9])
def test_random_churn_keeps_mask_and_scan_identical(num_vcs):
    """Arbitrary allocate/release interleavings (including the
    out-of-order releases produced by recovery teardown) never let the
    incremental structure drift from the scan."""
    rng = random.Random(99 + num_vcs)
    pc, lanes = make_pc(num_vcs)
    next_id = 0
    for step in range(300):
        free = [vc for vc in lanes if vc.occupant is None]
        held = [vc for vc in lanes if vc.occupant is not None]
        if held and (not free or rng.random() < 0.5):
            # Teardown-style release: any held lane, not just the oldest.
            rng.choice(held).release(cycle=step)
        else:
            rng.choice(free).allocate(next_id, cycle=step)
            next_id += 1
        assert_consistent(pc, lanes)


# ----------------------------------------------------------------------
# End-to-end: recovery teardown in a real simulation
# ----------------------------------------------------------------------
def _post_run_consistency(recovery: str) -> None:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=1,
        warmup_cycles=50,
        measure_cycles=400,
        seed=20,
        recovery=recovery,
    )
    config.traffic.injection_rate = 0.6
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    sim = Simulator(config)
    stats = sim.run()
    # The regime must actually exercise teardown for the test to bite.
    if recovery != "none":
        assert stats.messages_detected > 0
    sim.check_invariants()
    for pc in sim.channels:
        assert_consistent(pc, sim.lanes)


@pytest.mark.parametrize(
    "recovery", ["progressive", "progressive-reinject", "regressive"]
)
def test_free_lanes_survive_recovery_teardown(recovery):
    _post_run_consistency(recovery)


# ----------------------------------------------------------------------
# Routing: one shared table per width, and a draw by position
# ----------------------------------------------------------------------
def test_channels_of_one_width_share_one_table():
    config = SimulationConfig(radix=4, dimensions=2, seed=1)
    table = Simulator(config).channels[0].lanes_by_mask
    sim = Simulator(config)
    assert all(pc.lanes_by_mask is table for pc in sim.channels)


@st.composite
def blocked_headers(draw):
    """A lane count and 1-4 distinct network channels (of the 64 in a
    4x4 torus), each with a free mask and a usable mask."""
    num_vcs = draw(st.integers(1, 4))
    full = (1 << num_vcs) - 1
    n = draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True))
    masks = st.tuples(st.integers(0, full), st.integers(0, full))
    return num_vcs, list(zip(picks, draw(st.lists(masks, min_size=n, max_size=n))))


#: Three candidates with 2, 1 and 3 free usable lanes.  Positions 2 and 3
#: are the first lanes of the second and third candidate, where an
#: off-by-one in the walk lands on the wrong channel.
BOUNDARY_CASE = (3, [(0, (0b101, 0b111)), (5, (0b011, 0b110)), (9, (0b111, 0b111))])


def route_once(num_vcs, candidates, rng):
    """Block a header on ``candidates`` and route it once with ``rng``.

    Returns the lane ``Simulator._attempt_route`` granted (or ``None``)
    and the lanes a scan would concatenate: each candidate's free lanes
    that its usable mask allows, candidates in order, lanes by index.
    """
    sim = Simulator(
        SimulationConfig(radix=4, dimensions=2, vcs_per_channel=num_vcs, seed=1)
    )
    network = [pc for pc in sim.channels if pc.kind is PortKind.NETWORK]
    full = (1 << num_vcs) - 1
    pcs = []
    for pick, (free_mask, usable_mask) in candidates:
        pc = network[pick]
        for vc in pc.vcs(sim.lanes):
            if not free_mask >> vc.index & 1:
                vc.allocate(1, cycle=0)
        pc.stuck_mask = full & ~usable_mask
        pc.recompute_usable()
        pcs.append(pc)
    scan = [
        vc
        for pc in pcs
        for vc in pc.vcs(sim.lanes)
        if vc.occupant is None and pc.usable_mask >> vc.index & 1
    ]
    m = make_message(0)
    inj = sim.lanes[sim.routers[0].injection_pcs[0].lane0]
    inj.allocate(m.id, cycle=0)
    m.spans.append(inj)
    m.status = MessageStatus.IN_NETWORK
    m.first_attempt_done = True
    m.feasible_pcs = tuple(pcs)
    m.feasible_vcs = tuple(vc for pc in pcs for vc in pc.vcs(sim.lanes))
    sim.rng = rng
    assert sim._attempt_route(m, cycle=1) == bool(scan)
    return m.allocated_vc, scan


@given(blocked_headers(), st.integers(0, 2**32 - 1))
@example(BOUNDARY_CASE, 7)
def test_routing_draws_like_choice_over_the_concatenated_lanes(header, seed):
    num_vcs, candidates = header
    rng = random.Random(seed)
    granted, scan = route_once(num_vcs, candidates, rng)
    reference = random.Random(seed)
    expected = None
    if scan:
        expected = scan[0] if len(scan) == 1 else reference.choice(scan)
    assert granted is expected
    assert rng.getstate() == reference.getstate()  # one draw, or none


@given(blocked_headers())
@example(BOUNDARY_CASE)
@settings(max_examples=15)
def test_routing_serves_every_scripted_draw_position(header):
    num_vcs, candidates = header
    _, scan = route_once(num_vcs, candidates, random.Random(0))
    for k in range(max(len(scan), 1)):
        rng = ScriptedRNG()
        rng.log = ChoiceLog([k])
        granted, scan = route_once(num_vcs, candidates, rng)
        assert granted is (scan[k] if scan else None)
        assert rng.log.domains == ([len(scan)] if len(scan) > 1 else [])
