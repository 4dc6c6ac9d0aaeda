"""Out-of-band edge-chasing probe transport.

The probe detector (``repro.core.probe``) works like the classic
Chandy-Misra-Haas edge-chasing scheme, adapted to wormhole channel
wait-graphs: when a header has been blocked past a launch deadline, its
router starts a *probe session* and sends one probe along every wait
edge — every occupied, usable virtual channel the header could route
through.  Each probe advances one hop per cycle, out of band (a
dedicated simulator phase, no network bandwidth consumed), following the
wait edges of whichever blocked message it currently sits at.  A probe
that arrives back at its initiator has traversed a cycle of the wait
graph: the session declares deadlock and elects a victim for the
recovery path.

Protocol rules, in evaluation order at each hop (all state reads, no
writes to network state — the transport is a pure observer):

* **return** — the probe reached its initiator again: deadlock; the
  victim is the *youngest* (highest-id) message on the probe's path.
* **progress** — the current message is no longer blocked, was already
  marked for recovery, or has a free usable lane (an escape): the wait
  path is not a deadlock cycle; the probe dies.
* **election** — the probe sits at a blocked message with a *lower* id
  that is itself running a session: this probe dies and leaves the cycle
  to the lowest-id initiator (exactly one session survives per cycle).
* **forward** — otherwise the probe fans out along the message's wait
  edges, in deterministic per-channel order (feasible channels in cached
  routing order, lanes in index order), skipping fault-unusable lanes
  exactly as the ground-truth oracle does.

Probe storms are bounded two ways, both per initiator: a visited-set
(each message is probed at most once per session, so no two probes of
a session ever walk the same path) and hard ``max_hops`` /
``max_outstanding`` caps.  A session whose probes all die
simply ends; the detector relaunches on its cadence while the initiator
stays blocked, so a deadlock that forms *later* is still found.

One special case keeps the false-negative guarantee under faults: a
blocked header with **no** usable lane at all — every alternative dead
or stuck, nothing to wait on and nothing to escape through — can never
advance under the current fault state.  The oracle classifies it as
deadlocked, and no cycle-chasing probe would ever return to it, so the
launch declares it deadlocked directly (a *dead-end self-detection*).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.metrics.stats import PROBE_FIELDS
from repro.network.message import Message, usable_lanes
from repro.network.types import MessageStatus

#: (stats field, transport attribute) of each behavioural counter.
_COUNTERS = tuple((name, name[len("probe_"):]) for name in PROBE_FIELDS)


def wait_edges(
    m: Message, messages: Mapping[int, Message]
) -> Tuple[bool, List[Message]]:
    """Escape test plus the ordered holders the blocked message ``m`` waits on.

    Returns ``(has_escape, holders)`` where ``holders`` lists the
    occupant of each of ``m``'s usable lanes in lane order, looked up by
    id in ``messages`` (the network's in-flight map) — the relation
    :func:`repro.analysis.deadlock.find_deadlocked` reduces.  A free
    usable lane is an escape: the caller should drop the probe (the
    message can advance), so ``holders`` is not meaningful when
    ``has_escape`` is True.
    """
    holders: List[Message] = []
    for vc in usable_lanes(m.feasible_vcs):
        occupant = vc.occupant
        if occupant is None:
            return True, holders
        holders.append(messages[occupant])
    return False, holders


class Probe:
    """One in-flight probe: arrives at ``at`` on the next probe phase."""

    __slots__ = ("at", "hops", "victim")

    def __init__(self, at: Message, hops: int, victim: Message):
        self.at = at
        self.hops = hops
        #: Youngest (highest-id) message on the probe's path so far — the
        #: victim candidate if this probe closes the cycle.
        self.victim = victim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Probe(at={self.at.id}, hops={self.hops})"


class ProbeSession:
    """All probes chasing edges on behalf of one blocked initiator."""

    __slots__ = (
        "initiator",
        "episode",
        "visited",
        "probes",
        "has_returning",
    )

    def __init__(self, initiator: Message) -> None:
        self.initiator = initiator
        #: ``blocked_since`` at session start: the initiator advancing and
        #: re-blocking elsewhere starts a new episode, staling this session.
        self.episode = initiator.blocked_since
        #: Per-initiator dedupe: message ids already carrying a probe of
        #: this session (insertion-ordered dict used as an ordered set).
        self.visited: Dict[int, None] = {}
        self.probes: List[Probe] = []
        #: Whether a returning probe (next hop = initiator) is in flight.
        #: One suffices — it ends the session on arrival — so further
        #: returning probes are deduped, which caps outstanding probes at
        #: ``max_outstanding + 1`` even though returns bypass the guard.
        self.has_returning = False


class ProbeTransport:
    """Deterministic out-of-band carrier for every active probe session.

    Holds no reference to the simulator: it reads only message/channel
    state that is bit-identical across the scan and event engines at the
    probe phase, so every counter it maintains is behavioural (safe to
    include in the engine-equivalence digests).
    """

    def __init__(self, max_hops: int, max_outstanding: int) -> None:
        if max_hops < 1:
            raise ValueError(f"probe max_hops must be >= 1, got {max_hops}")
        if max_outstanding < 1:
            raise ValueError(
                f"probe max_outstanding must be >= 1, got {max_outstanding}"
            )
        self.max_hops = max_hops
        self.max_outstanding = max_outstanding
        #: initiator id -> active session (insertion-ordered: sessions are
        #: advanced in launch order, keeping victim order deterministic).
        self.sessions: Dict[int, ProbeSession] = {}
        # Behavioural counters (flushed into SimulationStats by the
        # detector): launches and detections, hop work, and one counter
        # per drop rule so the grading tables can tell a dedupe from an
        # election from a storm-guard cap.
        self.launches = 0
        self.hops = 0
        self.cycle_detections = 0
        self.deadend_detections = 0
        self.dropped_progress = 0
        self.dropped_dedupe = 0
        self.dropped_election = 0
        self.dropped_hops = 0
        self.dropped_overflow = 0
        self.peak_outstanding = 0

    def counters(self) -> Dict[str, int]:
        """The behavioural counters under their ``SimulationStats`` names."""
        return {field: getattr(self, attr) for field, attr in _COUNTERS}

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _marked(self, message: Message) -> bool:
        """Is ``message`` already detected *from this transport's view*?

        Seam for the batch backend (the launch cadence in
        ``repro.core.probe`` reads it too): its per-cell transports
        override it to read the cell's pending bit, since a shared
        multi-cell run never sets the global ``marked_deadlocked`` flag.
        """
        return message.marked_deadlocked

    def has_session(self, initiator_id: int) -> bool:
        return initiator_id in self.sessions

    def start_session(
        self, m: Message, messages: Mapping[int, Message]
    ) -> Optional[Message]:
        """Launch a probe session from the blocked initiator ``m``.

        Returns ``m`` itself when the launch immediately proves deadlock
        (the fault-wedged dead-end case: no usable lane to wait on *or*
        escape through), ``None`` otherwise.  A launch finding an escape
        starts nothing — the message can still advance.
        """
        escape, holders = wait_edges(m, messages)
        if escape:
            self.dropped_progress += 1
            return None
        if not holders:
            # Every alternative is fault-unusable: the header can never
            # advance under the current fault state, and no probe could
            # chase a cycle back to it.  Declare directly.
            self.launches += 1
            self.deadend_detections += 1
            return m
        session = ProbeSession(m)
        for holder in holders:
            if holder is m:
                # Self-wait (a lane the initiator itself still holds):
                # not a cycle through another message; skip, as the
                # exemplar protocol does.
                self.dropped_dedupe += 1
                continue
            self._forward(session, 0, holder, m)
        self.launches += 1
        if not session.probes:
            # Everything deduped away at launch: nothing in flight.
            return None
        self.sessions[m.id] = session
        if len(session.probes) > self.peak_outstanding:
            self.peak_outstanding = len(session.probes)
        return None

    # ------------------------------------------------------------------
    # Per-cycle advance
    # ------------------------------------------------------------------
    def advance(self, messages: Mapping[int, Message]) -> List[Message]:
        """Advance every in-flight probe one hop; return elected victims."""
        victims: List[Message] = []
        ended: List[int] = []
        in_network = MessageStatus.IN_NETWORK
        for initiator_id, session in self.sessions.items():
            initiator = session.initiator
            if (
                initiator.status is not in_network
                or self._marked(initiator)
                or initiator.blocked_since != session.episode
                or not initiator.is_blocked()
            ):
                # Initiator advanced, was recovered, or re-blocked in a
                # new episode: every probe of this session is moot.
                ended.append(initiator_id)
                continue
            victim = self._advance_session(session, messages)
            if victim is not None:
                victims.append(victim)
                ended.append(initiator_id)
            elif not session.probes:
                ended.append(initiator_id)  # dried up; cadence relaunches
        for initiator_id in ended:
            del self.sessions[initiator_id]
        return victims

    def _advance_session(
        self, session: ProbeSession, messages: Mapping[int, Message]
    ) -> Optional[Message]:
        """One hop for each of a session's probes; victim on detection."""
        out: List[Probe] = []
        in_network = MessageStatus.IN_NETWORK
        initiator = session.initiator
        for probe in session.probes:
            self.hops += 1
            x = probe.at
            if x is initiator:
                # The probe closed a cycle of the wait graph.
                self.cycle_detections += 1
                victim = probe.victim
                if (
                    victim.status is not in_network
                    or self._marked(victim)
                ):
                    victim = initiator
                return victim
            if (
                x.status is not in_network
                or self._marked(x)
                or not x.is_blocked()
            ):
                self.dropped_progress += 1
                continue
            if x.id < initiator.id and x.id in self.sessions:
                # Lowest-id root election: leave the cycle to the
                # lower-id initiator's own session.
                self.dropped_election += 1
                continue
            escape, holders = wait_edges(x, messages)
            if escape:
                self.dropped_progress += 1
                continue
            for holder in holders:
                if holder is x:
                    self.dropped_dedupe += 1
                    continue
                self._forward(session, probe.hops, holder, probe.victim, out)
        session.probes = out
        if len(out) > self.peak_outstanding:
            self.peak_outstanding = len(out)
        return None

    def _forward(
        self,
        session: ProbeSession,
        hops: int,
        holder: Message,
        victim: Message,
        out: Optional[List[Probe]] = None,
    ) -> None:
        """Create (or drop) one child probe along a wait edge."""
        sink = session.probes if out is None else out
        returning = holder is session.initiator
        if returning:
            # Returning probes bypass the visited-set dedupe and the
            # outstanding cap: dropping one would lose the very detection
            # the session exists for.  One in flight is enough, though —
            # it ends the session on arrival — so further returns dedupe
            # against it.  (max_hops still applies — a cycle longer than
            # the cap is declared undetectable by configuration.)
            if session.has_returning:
                self.dropped_dedupe += 1
                return
        elif holder.id in session.visited:
            self.dropped_dedupe += 1
            return
        if hops + 1 > self.max_hops:
            self.dropped_hops += 1
            return
        if not returning and len(sink) >= self.max_outstanding:
            self.dropped_overflow += 1
            return
        if returning:
            session.has_returning = True
        else:
            session.visited[holder.id] = None
        if holder.id > victim.id:
            victim = holder
        sink.append(Probe(holder, hops + 1, victim))
