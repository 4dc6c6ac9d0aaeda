"""Physical and virtual channels with lazy inactivity monitoring.

The detection mechanisms of the paper are built on one counter per physical
output channel that counts cycles of *inactivity while occupied* and resets
whenever a flit crosses the channel (any of its virtual channels).  Keeping a
literal counter would cost O(channels) work per cycle; instead each channel
stores the cycle of the last flit transmission and the cycle at which it last
became occupied, and derives the counter value on demand:

    inactivity(now) = now - max(last_flit_cycle, active_since)   if occupied
                    = frozen value at last release               otherwise

This is exactly the paper's counter at O(1) per event: it advances only
while at least one virtual channel is occupied, resets on every flit, and
— like the hardware, which gates the increment but not the register —
*freezes* (rather than resets) across unoccupied gaps.  The freeze matters
for the paper's Figure 5 situation: a channel freed by recovery and
immediately re-acquired still shows its long inactivity, so the first flit
of the new occupant clears a set I flag and re-labels the tree root.

The network keeps every lane in one flat list (a channel's from ``lane0``).
A lane points at its channel and names its occupant by message id; a
channel names its waiting messages by id and points at nothing, so no
reference cycle runs through either.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.network.types import NodeId, PortKind
from repro.network.topology import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.network.simulator import Simulator

#: Sentinel meaning "never": far enough in the past that any difference with a
#: real cycle number exceeds every practical threshold.
NEVER = -(1 << 60)


@lru_cache(maxsize=None)
def _lanes_of_mask(num_vcs: int) -> Tuple[Tuple[int, ...], ...]:
    """The lane indices each free mask selects, lowest first — one table
    per channel width, shared by every channel of that width."""
    return tuple(
        tuple(i for i in range(num_vcs) if mask >> i & 1)
        for mask in range(1 << num_vcs)
    )


class VirtualChannel:
    """One virtual channel (lane) of a physical channel.

    Holds at most one *occupant* worm at a time, named by its message id;
    ``flits`` counts how many of the occupant's flits currently sit in this
    channel's input buffer.  Sink channels (ejection ports) consume flits
    instantly, so their ``flits`` stays at zero while they are occupied.
    """

    __slots__ = ("pc", "index", "capacity", "occupant", "flits")

    def __init__(self, pc: "PhysicalChannel", index: int, capacity: int) -> None:
        self.pc = pc
        self.index = index
        self.capacity = capacity
        self.occupant: Optional[int] = None
        self.flits = 0

    def allocate(self, message_id: int, cycle: int) -> None:
        """Reserve this virtual channel for message ``message_id``'s worm."""
        if self.occupant is not None:
            raise RuntimeError(
                f"{self} already occupied by message {self.occupant}"
            )
        self.pc.free_mask &= ~(1 << self.index)
        self.pc.note_occupied(cycle)
        self.occupant = message_id

    def release(self, cycle: int) -> None:
        """Free the channel after the occupant's tail passed (or recovery)."""
        if self.occupant is None:
            raise RuntimeError(f"{self} released while already free")
        self.occupant = None
        self.flits = 0
        self.pc.free_mask |= 1 << self.index
        self.pc.note_released(cycle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC({self.pc.describe()}, lane={self.index})"


class PhysicalChannel:
    """A unidirectional physical channel multiplexed into virtual channels.

    One flit per cycle may cross a physical channel regardless of which
    virtual channel it belongs to; ``last_flit_cycle`` doubles as the
    transmit-side bandwidth guard.  ``last_drain_cycle`` is the receive-side
    guard: at most one flit per cycle leaves this channel's input buffers
    through the downstream router's crossbar (stamped only when
    ``crossbar_input_limit``, its sole reader, is on).

    The channel also carries the detection hardware's per-channel
    monitor state:

    * the inactivity monitor (see module docstring) read by the I/DT/IF
      flags of the detectors;
    * an optional ``i_threshold``: a flit transmission that clears an I
      flag set beyond it fires the detector's ``on_i_reset`` hook, which
      NDM uses to promote P flags back to G (paper, Fig. 5 situation).

    The new detection mechanism's per-input-channel Generate/Propagate
    flags are not here: the detector owns them
    (``NewDetectionMechanism.gp``, by channel index), so two detectors
    on one network keep two sets.
    """

    __slots__ = (
        "index",
        "kind",
        "src_node",
        "dst_node",
        "direction",
        "num_vcs",
        "lane0",
        "free_mask",
        "lanes_by_mask",
        "occupied_count",
        "last_flit_cycle",
        "active_since",
        "last_drain_cycle",
        "i_threshold",
        "route_waiters",
        "header_waiters",
        "_frozen_inactivity",
        "fault_down",
        "stuck_mask",
        "usable_mask",
        "counter_lag",
    )

    def __init__(
        self,
        index: int,
        kind: PortKind,
        src_node: Optional[NodeId],
        dst_node: Optional[NodeId],
        direction: Optional[Direction],
        num_vcs: int,
        buffer_depth: int,
        lanes: List[VirtualChannel],
    ) -> None:
        self.index = index
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.direction = direction
        self.num_vcs = num_vcs
        self.lane0 = len(lanes)
        for i in range(num_vcs):
            lanes.append(VirtualChannel(self, i, buffer_depth))
        # Incremental free-lane structure: bit ``i`` of ``free_mask`` is
        # set iff lane ``i`` is unoccupied, maintained by VirtualChannel
        # allocate/release as two integer ops.  ``lanes_by_mask[mask]``
        # is the tuple of lane indices set in that mask, in lane-index
        # order — the order a scan of the lanes collects them, so a draw
        # by position picks the lane ``rng.choice`` over that scan would.
        # One table per width is shared by every channel of that width
        # (2**n entries: ``SimulationConfig.validate`` caps n at 8).
        self.free_mask = (1 << num_vcs) - 1
        self.lanes_by_mask = _lanes_of_mask(num_vcs)
        self.occupied_count = 0
        self.last_flit_cycle = NEVER
        self.active_since = NEVER
        self.last_drain_cycle = NEVER
        self.i_threshold: Optional[int] = None
        # Ids of the parked headers waiting on this output channel and of
        # those whose header sits on this input channel (Simulator.wake).
        self.route_waiters: Optional[Dict[int, None]] = None
        self.header_waiters: Optional[Dict[int, None]] = None
        # Counter value latched when the channel became fully unoccupied;
        # the hardware register keeps its value across unoccupied gaps.
        self._frozen_inactivity = 0
        # --- fault-injection state (see repro.faults) -------------------
        # ``usable_mask`` is the set of lanes routing/injection may
        # allocate: all lanes while healthy, 0 while the link is down,
        # and the complement of ``stuck_mask`` otherwise.  Healthy runs
        # keep it at the all-ones value, so hot paths may AND it in
        # unconditionally.  ``counter_lag`` distorts the inactivity
        # reading (frozen/delayed counter faults) without touching the
        # timestamps the bandwidth guards depend on; it can only move a
        # threshold crossing *later*, so cached detection deadlines stay
        # valid lower bounds.
        self.fault_down = False
        self.stuck_mask = 0
        self.usable_mask = (1 << num_vcs) - 1
        self.counter_lag = 0

    # ------------------------------------------------------------------
    # Occupancy bookkeeping (called by VirtualChannel)
    # ------------------------------------------------------------------
    def note_occupied(self, cycle: int) -> None:
        """Register one more occupied lane (starts/resumes the counter)."""
        if self.occupied_count == 0:
            # Resume the counter from its frozen value: the virtual start
            # is back-dated so inactivity(cycle) == frozen value now.
            self.active_since = cycle - self._frozen_inactivity
        self.occupied_count += 1

    def note_released(self, cycle: int) -> None:
        """Register one freed lane (freezes the counter at zero lanes)."""
        self.occupied_count -= 1
        if self.occupied_count < 0:
            raise RuntimeError(f"{self.describe()}: negative occupancy")
        if self.occupied_count == 0:
            start = self.last_flit_cycle
            if self.active_since > start:
                start = self.active_since
            frozen = cycle - start - self.counter_lag
            self._frozen_inactivity = frozen if frozen > 0 else 0
            # The latched register value already reflects the lag; the
            # counter resumes from it on re-occupation with a clean slate.
            self.counter_lag = 0

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def inactivity(self, cycle: int) -> int:
        """Cycles since the last flit crossed, while at least one VC is held.

        This is the value of the paper's per-channel counter at ``cycle``.
        """
        if self.occupied_count == 0:
            return self._frozen_inactivity
        start = self.last_flit_cycle
        if self.active_since > start:
            start = self.active_since
        value = cycle - start - self.counter_lag
        return value if value > 0 else 0

    def inactivity_deadline(self, threshold: int) -> Optional[int]:
        """First cycle at which ``inactivity(cycle) > threshold`` can hold.

        Assumes no further events on this channel: the returned cycle is a
        *lower bound* on the real crossing (a flit transmission only pushes
        it later; occupancy transitions wake the waiters that cached it).
        Returns ``None`` when the counter is frozen at or below the
        threshold — it cannot cross until the channel is re-occupied.
        A value in the past means the threshold is already exceeded.
        """
        if self.occupied_count == 0:
            if self._frozen_inactivity > threshold:
                return NEVER  # frozen above threshold: holds at any cycle
            return None
        start = self.last_flit_cycle
        if self.active_since > start:
            start = self.active_since
        return start + threshold + 1 + self.counter_lag

    def record_flit(self, cycle: int, sim: "Simulator") -> None:
        """Account for one flit crossing the channel at ``cycle``.

        Resets the inactivity monitor; if that transition clears an I flag
        set beyond ``i_threshold``, ``sim``'s detector hears of it through
        ``on_i_reset`` *before* the reset, so it observes the transition
        (the paper's root-relabeling rule).  The movement loop's inlined
        copy skips the test when ``last_flit_cycle == cycle - 1``:
        inactivity is then at most 1 and no channel is armed with
        ``i_threshold < 1``, so no I flag is set.
        """
        t1 = self.i_threshold
        if t1 is not None and self.occupied_count > 0:
            start = self.last_flit_cycle
            if self.active_since > start:
                start = self.active_since
            if cycle - start - self.counter_lag > t1:
                sim.detector.on_i_reset(sim, self, cycle)
        self.last_flit_cycle = cycle
        self.counter_lag = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def vcs(self, lanes: Sequence[VirtualChannel]) -> Sequence[VirtualChannel]:
        """This channel's lanes, out of the network's flat list ``lanes``."""
        return lanes[self.lane0 : self.lane0 + self.num_vcs]

    def free_lanes(
        self, lanes: Sequence[VirtualChannel]
    ) -> Tuple[VirtualChannel, ...]:
        """The currently unoccupied lanes, in lane-index order.

        Routing reads lane indices and picks a lane by position instead
        of building this tuple; it serves checks and tests.
        """
        base = self.lane0
        return tuple([lanes[base + i] for i in self.lanes_by_mask[self.free_mask]])

    # ------------------------------------------------------------------
    # Fault state (mutated only by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------
    def recompute_usable(self) -> None:
        """Refresh ``usable_mask`` from ``fault_down`` / ``stuck_mask``.

        A widening recompute (a heal) can unblock parked waiters, but the
        wake is deliberately not issued here: the only caller is
        ``FaultInjector.apply``, which mutates many channels per event and
        ends with one ``sim.wake_all_parked()`` covering them all.
        """
        mask = 0 if self.fault_down else (1 << self.num_vcs) - 1
        self.usable_mask = mask & ~self.stuck_mask

    def describe(self) -> str:
        """Short human-readable identity (endpoint nodes and kind)."""
        if self.kind is PortKind.NETWORK:
            return f"net[{self.src_node}->{self.dst_node} dir={self.direction}]"
        if self.kind is PortKind.INJECTION:
            return f"inj[node={self.dst_node}]"
        return f"ej[node={self.src_node}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PC#{self.index} {self.describe()}"
