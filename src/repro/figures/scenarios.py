"""Scripted reconstructions of the paper's Figures 2-5.

The four figures tell one continuous story on a 2x2 sub-torus of channels
(here placed at nodes a=(3,0), b=(4,0), c=(4,1), d=(3,1) of an 8x8 torus,
one virtual channel per physical channel so the figures' single-lane
channels are modelled exactly):

* **Figure 2** — messages B, C and D form a chain of blocked messages
  behind an advancing message A: no deadlock, and the NDM must detect
  nothing (the PDM falsely detects C and D).
* **Figure 3** — A drains away and a new message E takes its channel,
  then blocks on D's channel, closing a true deadlock {B, C, D, E}.
  Only B (which saw the root A advance) is eligible: the NDM detects
  exactly B.
* **Figure 4** — recovering B removes the deadlock; everything delivers.
* **Figure 5** — a newcomer F grabs the channel B freed, re-closing the
  cycle as {C, D, E, F}.  F's first flit on that channel re-labels the
  root (I-flag reset -> G/P promotion), so the NDM detects exactly C.

Every hop of every worm is consistent with true fully adaptive minimal
routing, so the scenario messages travel, block and unblock through the
ordinary simulator machinery; only initial worm placement (and, for E/F,
channel hand-off timing) is scripted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.channel import VirtualChannel
from repro.network.config import SimulationConfig
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import Direction
from repro.network.types import MessageStatus, PortKind

#: The four corner nodes of the scenario's channel cycle (8x8 torus coords).
A_NODE = (3, 0)
B_NODE = (4, 0)
C_NODE = (4, 1)
D_NODE = (3, 1)

#: Length in flits of message A, which advances in Figure 2 and leaves
#: in Figure 3.
A_LENGTH = 36


def scenario_config(
    mechanism: str = "ndm",
    threshold: int = 16,
    recovery: str = "none",
    selective_promotion: bool = False,
) -> SimulationConfig:
    """Simulation config matching the paper's figure drawings.

    One virtual channel per physical channel (single-lane channels as
    drawn), no background traffic, no injection limitation.
    """
    config = SimulationConfig(
        radix=8,
        dimensions=2,
        vcs_per_channel=1,
        buffer_depth=4,
        injection_ports=1,
        ejection_ports=1,
        injection_limit_fraction=None,
        recovery=recovery,
        warmup_cycles=0,
        measure_cycles=10_000,
        ground_truth_interval=0,
        seed=99,
    )
    config.traffic.injection_rate = 0.0
    config.detector.mechanism = mechanism
    config.detector.threshold = threshold
    config.detector.selective_promotion = selective_promotion
    return config


@dataclass
class Scenario:
    """One running figure scenario: the simulator plus named messages."""

    sim: Simulator
    messages: Dict[str, Message] = field(default_factory=dict)

    def name_of(self, message_id: int) -> Optional[str]:
        for name, m in self.messages.items():
            if m.id == message_id:
                return name
        return None

    def detected_names(self) -> List[str]:
        """Names of scenario messages detected so far, in event order."""
        names = []
        for event in self.sim.stats.detection_events:
            name = self.name_of(event.message_id)
            if name is not None:
                names.append(name)
        return names

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.sim.step()

    def run_until(self, predicate, limit: int = 2000) -> bool:
        """Step until ``predicate(scenario)`` holds; False on timeout."""
        for _ in range(limit):
            if predicate(self):
                return True
            self.sim.step()
        return predicate(self)


# ----------------------------------------------------------------------
# Worm placement
# ----------------------------------------------------------------------
def place_worm(
    sim: Simulator,
    source: Sequence[int],
    path: Sequence[Direction],
    dest: Sequence[int],
    length: int,
    parked: bool = False,
) -> Message:
    """Materialize a worm that entered at ``source`` and followed ``path``.

    The worm occupies the source's injection channel plus one network
    channel per path hop; its header sits buffered at the router at the end
    of the path.  Buffers are filled from the header backwards, leftover
    flits wait at the source.  The message is handed to the ordinary
    simulator machinery (it will attempt routing next cycle).

    With ``parked=True`` the worm never routes: it holds its channels in
    silence indefinitely (a controllable stand-in for a worm stalled by
    causes outside the scenario).
    """
    topo = sim.topology
    m, inj_vc = _admit(sim, topo.node_at(source), topo.node_at(dest), length)
    spans: List[VirtualChannel] = [inj_vc]
    node = m.source
    for direction in path:
        router = sim.routers[node]
        pc = router.output_pcs.get(direction)
        if pc is None:
            raise ValueError(f"node {node} has no channel in direction {direction}")
        vc = next((v for v in pc.vcs(sim.lanes) if v.occupant is None), None)
        if vc is None:
            raise RuntimeError(f"{pc} fully occupied; scenario placement invalid")
        sim._allocate(vc, m, sim.cycle)
        router.note_network_vc_allocated()
        spans.append(vc)
        node = pc.dst_node

    # Fill buffers from the header backwards.
    remaining = length
    for vc in reversed(spans):
        take = min(remaining, vc.capacity)
        vc.flits = take
        remaining -= take
    m.flits_at_source = remaining
    m.spans = spans
    m.last_source_flit_cycle = sim.cycle  # placement counts as last activity
    if not parked:
        sim.pending_route.append(m)
    return m


def place_entering(
    sim: Simulator,
    source: Sequence[int],
    dest: Sequence[int],
    length: int,
    first_vc: VirtualChannel,
) -> Message:
    """Materialize a worm at ``source`` with its first hop pre-granted.

    Models the paper's "a newly arrived message acquires the channel":
    the message holds an injection VC and has ``first_vc`` allocated, so
    its header crosses that channel in the next movement phase — before
    any blocked rival can re-route into it.
    """
    if first_vc.occupant is not None:
        raise RuntimeError(f"{first_vc} is not free")
    topo = sim.topology
    m, inj_vc = _admit(sim, topo.node_at(source), topo.node_at(dest), length)
    inj_vc.flits = min(length, inj_vc.capacity)
    m.flits_at_source = length - inj_vc.flits
    m.spans = [inj_vc]
    sim._allocate(first_vc, m, sim.cycle)
    if first_vc.pc.kind is PortKind.NETWORK:
        sim.routers[first_vc.pc.src_node].note_network_vc_allocated()
    m.allocated_vc = first_vc
    return m


def _admit(
    sim: Simulator, source: int, dest: int, length: int
) -> Tuple[Message, VirtualChannel]:
    """A new message from ``source``, counted as injected now and in
    flight, holding a free injection lane of its node (also returned)."""
    m = Message(sim._next_message_id, source, dest, length, sim.cycle)
    sim._next_message_id += 1
    inj_vc = sim.routers[source].free_injection_vc(sim.lanes)
    if inj_vc is None:
        raise RuntimeError(f"no free injection VC at node {source}")
    sim._allocate(inj_vc, m, sim.cycle)
    m.status = MessageStatus.IN_NETWORK
    m.inject_cycle = sim.cycle
    m.ever_injected = m.counted = m.in_active = True
    sim.stats.injected += 1
    if sim.measuring:
        sim.stats.injected_measured += 1
    sim.active_messages.append(m)
    sim.messages[m.id] = m
    return m, inj_vc


# ----------------------------------------------------------------------
# Channel lookup helpers
# ----------------------------------------------------------------------
def channel_between(
    sim: Simulator, src: Sequence[int], dst: Sequence[int]
) -> VirtualChannel:
    """The (single) virtual channel of the physical channel src -> dst."""
    topo = sim.topology
    src_node = topo.node_at(src)
    dst_node = topo.node_at(dst)
    for direction, pc in sim.routers[src_node].output_pcs.items():
        if pc.dst_node == dst_node:
            return sim.lanes[pc.lane0]
    raise ValueError(f"no channel from {src} to {dst}")


# ----------------------------------------------------------------------
# Figure builders
# ----------------------------------------------------------------------
def build_figure2(
    mechanism: str = "ndm",
    threshold: int = 16,
    recovery: str = "none",
    selective_promotion: bool = False,
) -> Scenario:
    """Figure 2: B, C, D blocked behind the advancing message A.

    Chain after setup:  D -> waits on C's channel (c->d)
                        C -> waits on B's channel (d->a)
                        B -> waits on A's channel (a->b), A advancing.
    """
    config = scenario_config(mechanism, threshold, recovery, selective_promotion)
    scenario = Scenario(Simulator(config))
    sim = scenario.sim

    # A: injected at a, heading straight +x to (6,0); holds ch(a->b) and
    # keeps transmitting across it while it drains.
    scenario.messages["A"] = place_worm(
        sim, A_NODE, [(0, +1)], (6, 0), length=A_LENGTH
    )
    scenario.run(2)  # let A's flits flow so ch(a->b) looks active

    # B: entered at d, went -y to a, now needs +x across A's channel.
    # It arrives while A is advancing => first-attempt test gives G.
    scenario.messages["B"] = place_worm(
        sim, D_NODE, [(1, -1)], B_NODE, length=16
    )
    scenario.run(12)  # B's channel (d->a) has now been silent for > t1

    # C: entered at c, went -x to d, needs -y across B's channel.
    # B was already blocked when C arrived => P.
    scenario.messages["C"] = place_worm(
        sim, C_NODE, [(0, -1)], A_NODE, length=16
    )
    scenario.run(8)

    # D: entered at b, went +y to c, needs -x across C's channel => P.
    scenario.messages["D"] = place_worm(
        sim, B_NODE, [(1, +1)], D_NODE, length=16
    )
    return scenario


def build_figure3(
    mechanism: str = "ndm",
    threshold: int = 16,
    recovery: str = "none",
    selective_promotion: bool = False,
) -> Scenario:
    """Figure 3: A leaves, E takes its channel and closes a true deadlock.

    Cycle after setup: B -> ch(a->b) held by E -> ch(b->c) held by D ->
    ch(c->d) held by C -> ch(d->a) held by B.
    """
    scenario = build_figure2(mechanism, threshold, recovery, selective_promotion)
    sim = scenario.sim
    ab = channel_between(sim, A_NODE, B_NODE)

    # Wait for A's tail to release ch(a->b) ...
    ok = scenario.run_until(lambda s: ab.occupant is None, limit=500)
    if not ok:
        raise RuntimeError("A never released ch(a->b)")
    # ... and hand it to the newly arriving E before B can re-route.
    scenario.messages["E"] = place_entering(
        sim, A_NODE, C_NODE, length=16, first_vc=ab
    )
    return scenario


def build_figure4(
    threshold: int = 16, selective_promotion: bool = False
) -> Scenario:
    """Figure 4: progressive recovery of B removes the Figure 3 deadlock."""
    return build_figure3(
        "ndm", threshold, recovery="progressive",
        selective_promotion=selective_promotion,
    )


def build_simultaneous_blocking(
    mechanism: str = "ndm",
    threshold: int = 16,
    recovery: str = "none",
    selective_promotion: bool = False,
) -> Scenario:
    """The paper's simultaneous-blocking corner case (Section 3).

    "It may happen that several messages involved in a deadlock block
    simultaneously.  In this case, deadlock is detected by several
    messages, because they are blocked by another message that is still
    advancing."

    Construction: two advancing messages A1 (on ch(a->b)) and A2 (on
    ch(c->d)) give both B and D a G flag; when A1/A2 drain, newcomers E
    and F take their channels and close the cycle {B, E, D, F}.  Both B
    and D hold G, so both detect — recovery is invoked twice for one
    deadlock, the overhead case the paper describes as infrequent.
    """
    config = scenario_config(mechanism, threshold, recovery, selective_promotion)
    scenario = Scenario(Simulator(config))
    sim = scenario.sim

    scenario.messages["A1"] = place_worm(
        sim, A_NODE, [(0, +1)], (6, 0), length=30
    )
    scenario.messages["A2"] = place_worm(
        sim, C_NODE, [(0, -1)], (1, 1), length=30
    )
    scenario.run(2)

    # B and D block in the same cycle, each on an advancing root -> G.
    scenario.messages["B"] = place_worm(
        sim, D_NODE, [(1, -1)], B_NODE, length=16
    )
    scenario.messages["D"] = place_worm(
        sim, B_NODE, [(1, +1)], D_NODE, length=16
    )

    ab = channel_between(sim, A_NODE, B_NODE)
    cd = channel_between(sim, C_NODE, D_NODE)
    ok = scenario.run_until(
        lambda s: ab.occupant is None and cd.occupant is None, limit=500
    )
    if not ok:
        raise RuntimeError("A1/A2 never released their channels")
    scenario.messages["E"] = place_entering(
        sim, A_NODE, C_NODE, length=16, first_vc=ab
    )
    scenario.messages["F"] = place_entering(
        sim, C_NODE, A_NODE, length=16, first_vc=cd
    )
    return scenario


def build_figure5(
    mechanism: str = "ndm",
    threshold: int = 16,
    selective_promotion: bool = False,
) -> Tuple[Scenario, Message]:
    """Figure 5: F re-closes the cycle through the channel B freed.

    Builds Figure 3, waits until B is (or would be) marked, removes B as
    the recovery mechanism would, and immediately lets F acquire B's freed
    channel ch(d->a).  F's first flit across it promotes C's G/P flag to
    G, so the new deadlock {C, D, E, F} is detected by C.

    Returns the scenario and the removed message B.
    """
    scenario = build_figure3(
        mechanism, threshold, recovery="none",
        selective_promotion=selective_promotion,
    )
    sim = scenario.sim
    b = scenario.messages["B"]

    # Run until the detector marks B (the Figure 3/4 outcome).
    ok = scenario.run_until(lambda s: b.marked_deadlocked, limit=2000)
    if not ok:
        raise RuntimeError("B was never detected; Figure 3 setup failed")

    # Recover B by hand (deterministically, so C cannot race F for the
    # freed channel): free its worm exactly like progressive recovery.
    sim.free_worm(b, sim.cycle)
    b.status = MessageStatus.RECOVERING

    da = channel_between(sim, D_NODE, A_NODE)
    scenario.messages["F"] = place_entering(
        sim, D_NODE, B_NODE, length=16, first_vc=da
    )
    return scenario, b
