"""Messages (worms) and their flit accounting.

A wormhole message is represented as the ordered list of virtual channels it
currently *spans*, with a flit count per channel, instead of per-flit
objects.  ``spans[0]`` is the tail-most channel (closest to the source),
``spans[-1]`` holds the header.  Conservation invariant, checked by tests:

    flits_at_source + sum(vc.flits for vc in spans) + flits_delivered == length
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.types import MessageId, MessageStatus, NodeId, PortKind


class Message:
    """One message travelling (or queued to travel) through the network.

    Attributes:
        id: dense id in generation order.
        source: node where the message was generated (re-injection after a
            progressive recovery changes ``inject_node``, never ``source``).
        dest: destination node.
        length: total flits, header included.
        gen_cycle: cycle the message was generated at the source.
        inject_node: node whose injection port the worm (re-)enters from.
        spans: virtual channels currently held, tail first.
        allocated_vc: output VC granted by routing but not yet entered by
            the header (reserved, so it already counts as occupied).
        flits_at_source: flits not yet injected into ``spans[0]``.
        flits_delivered: flits consumed by the destination.
        first_attempt_done: whether the header already failed one routing
            attempt at the current router (drives the NDM first-attempt
            G/P logic and the "subsequent attempts" detection checks).
        blocked_since: cycle of the first failed attempt at this router.
        feasible_pcs: output physical channels the header may use at the
            current router, cached on the first failed attempt.
        feasible_vcs: the lanes of those channels the routing function
            allows this header, flattened in routing order at the same
            instant; readers filter them through :func:`usable_lanes`.
        recoveries: completed progressive recoveries for this message.
        retries: regressive aborts (kill-and-reinject) for this message.
    """

    __slots__ = (
        "id",
        "source",
        "dest",
        "length",
        "gen_cycle",
        "inject_node",
        "inject_cycle",
        "deliver_cycle",
        "status",
        "spans",
        "allocated_vc",
        "flits_at_source",
        "flits_delivered",
        "first_attempt_done",
        "blocked_since",
        "feasible_pcs",
        "feasible_vcs",
        "last_source_flit_cycle",
        "marked_deadlocked",
        "recoveries",
        "retries",
        "is_recovery_reinjection",
        "counted",
        "in_active",
        "ever_injected",
        "times_detected",
        "route_asleep",
        "move_asleep",
        "wait_registered",
    )

    def __init__(
        self,
        message_id: MessageId,
        source: NodeId,
        dest: NodeId,
        length: int,
        gen_cycle: int,
    ) -> None:
        if length < 1:
            raise ValueError(f"message length must be >= 1, got {length}")
        if source == dest:
            raise ValueError("message source and destination must differ")
        self.id = message_id
        self.source = source
        self.dest = dest
        self.length = length
        self.gen_cycle = gen_cycle
        self.inject_node = source
        self.inject_cycle: Optional[int] = None
        self.deliver_cycle: Optional[int] = None
        self.status = MessageStatus.QUEUED
        self.spans: List[VirtualChannel] = []
        self.allocated_vc: Optional[VirtualChannel] = None
        self.flits_at_source = length
        self.flits_delivered = 0
        self.first_attempt_done = False
        self.blocked_since: Optional[int] = None
        self.feasible_pcs: Tuple[PhysicalChannel, ...] = ()
        self.feasible_vcs: Tuple[VirtualChannel, ...] = ()
        self.last_source_flit_cycle: Optional[int] = None
        self.marked_deadlocked = False
        self.recoveries = 0
        self.retries = 0
        self.is_recovery_reinjection = False
        # Whether this message counts toward measured statistics (generated
        # after warmup); set by the simulator at generation time.
        self.counted = False
        # Simulator bookkeeping: presence in the active list / first
        # injection already recorded (re-injections do not recount).
        self.in_active = False
        self.ever_injected = False
        # How many times any detector marked this message (a message can be
        # re-detected after recovery re-injection; the paper's tables count
        # messages, so stats track first detections separately).
        self.times_detected = 0
        # Event-driven quiescence state (see repro.network.simulator).  A
        # parked message/worm is skipped by the routing/movement scans until
        # a wakeup event clears the flag; both stay False under the
        # reference per-cycle-scan engine.
        self.route_asleep = False
        self.move_asleep = False
        # Whether this blocked header is registered in the waiter sets of
        # its feasible output channels (and its input channel).
        self.wait_registered = False

    # ------------------------------------------------------------------
    # Position queries
    # ------------------------------------------------------------------
    def header_router(self) -> Optional[NodeId]:
        """Router at which the header waits / was last buffered."""
        spans = self.spans
        if not spans:
            return None
        pc = spans[-1].pc
        if pc.kind is PortKind.EJECTION:
            return pc.src_node
        return pc.dst_node

    @property
    def input_pc(self) -> Optional[PhysicalChannel]:
        """Physical input channel containing the header (for G/P logic)."""
        spans = self.spans
        return spans[-1].pc if spans else None

    def flits_in_network(self) -> int:
        return sum(vc.flits for vc in self.spans)

    def is_blocked(self) -> bool:
        """Header stalled at a router with no output channel granted yet."""
        return (
            self.status is MessageStatus.IN_NETWORK
            and self.allocated_vc is None
            and self.first_attempt_done
        )

    # ------------------------------------------------------------------
    # State resets
    # ------------------------------------------------------------------
    def reset_routing_state(self) -> None:
        """Clear per-router blocking bookkeeping after the header advances.

        Callers that registered the message in channel waiter sets must
        unregister it *before* this call (it clears ``feasible_pcs``).
        """
        self.first_attempt_done = False
        self.blocked_since = None
        self.feasible_pcs = ()
        self.feasible_vcs = ()
        # A granted output channel is both a routing and a movement wakeup.
        self.route_asleep = False
        self.move_asleep = False

    def reset_for_reinjection(self, node: NodeId, cycle: int) -> None:
        """Prepare the message to re-enter the network from ``node``.

        Used by both recovery schemes after the worm's channels were freed.
        The original ``gen_cycle`` is preserved so end-to-end latency counts
        the recovery delay.
        """
        self.inject_node = node
        self.inject_cycle = None
        self.spans = []
        self.allocated_vc = None
        self.flits_at_source = self.length
        self.flits_delivered = 0
        self.marked_deadlocked = False
        self.last_source_flit_cycle = None
        self.status = MessageStatus.QUEUED
        self.reset_routing_state()

    def check_conservation(self) -> None:
        """Raise if the flit conservation invariant is violated."""
        total = self.flits_at_source + self.flits_in_network() + self.flits_delivered
        if total != self.length:
            raise AssertionError(
                f"message {self.id}: {self.flits_at_source} at source + "
                f"{self.flits_in_network()} in network + "
                f"{self.flits_delivered} delivered != length {self.length}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(id={self.id}, {self.source}->{self.dest}, "
            f"len={self.length}, status={self.status.value})"
        )


def usable_lanes(lanes: Iterable[VirtualChannel]) -> Iterator[VirtualChannel]:
    """Those of a header's allowed ``lanes`` that are not faulted.

    Over ``Message.feasible_vcs`` this is the wait relation: a usable lane
    is an escape while free and a wait edge to its occupant otherwise; a
    lane on a down link or a stuck lane is neither.  ``usable_mask`` is
    all-ones on a healthy channel, so one filter serves every run.
    """
    for vc in lanes:
        if (vc.pc.usable_mask >> vc.index) & 1:
            yield vc
