"""Channel wait-for graph construction and cycle analysis.

The fixpoint in :mod:`repro.analysis.deadlock` answers *whether* messages
are deadlocked; this module builds the explicit structure — who waits on
whom, through which channels — for diagnosis, examples and the dependency
ablations.  The graph is plain adjacency dictionaries; cycle enumeration
runs over them directly.

Semantics (OR-wait model): there is an edge ``m -> holder`` for every
occupied virtual channel ``m``'s blocked header may use.  A set of blocked
messages is deadlocked iff it forms a *knot* under OR-semantics — every
message's every alternative leads back into the set — which is what the
fixpoint computes; simple cycles found here are necessary-but-not-
sufficient evidence and therefore reported as *candidates*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.deadlock import find_deadlocked
from repro.network.message import Message, usable_lanes


@dataclass
class WaitEdge:
    """One wait dependency: ``waiter`` wants a VC held by ``holder``."""

    waiter: Message
    holder: Message
    channel_index: int
    vc_index: int


@dataclass
class WaitGraph:
    """The wait-for structure of one simulation instant."""

    #: All blocked messages considered, keyed by id.
    messages: Dict[int, Message] = field(default_factory=dict)
    #: waiter id -> list of edges (one per occupied alternative VC).
    edges: Dict[int, List[WaitEdge]] = field(default_factory=dict)
    #: waiter id -> number of *free* alternative VCs (escapes).
    free_alternatives: Dict[int, int] = field(default_factory=dict)

    def holders_of(self, message: Message) -> Set[int]:
        return {e.holder.id for e in self.edges.get(message.id, [])}

    def out_degree(self, message: Message) -> int:
        return len(self.edges.get(message.id, []))

    def blocked_count(self) -> int:
        return len(self.messages)

    # ------------------------------------------------------------------
    # Cycle analysis
    # ------------------------------------------------------------------
    def candidate_cycles(self, limit: int = 64) -> List[List[int]]:
        """Elementary cycles among blocked messages (message-id lists).

        Each cycle is listed once, starting at its smallest id; cycles
        come in ascending order and the search stops after ``limit``.
        Cycles are necessary for deadlock but, under OR-waiting, not
        sufficient; compare with the fixpoint's verdict.
        """
        succ: Dict[int, List[int]] = {
            waiter: sorted(self.holders_of(m) & self.messages.keys())
            for waiter, m in self.messages.items()
        }
        pred: Dict[int, List[int]] = {waiter: [] for waiter in succ}
        for waiter, holders in succ.items():
            for holder in holders:
                pred[holder].append(waiter)
        cycles: List[List[int]] = []
        for start in sorted(succ):
            # A cycle whose smallest id is ``start`` visits only larger ids
            # that can get back to it; blocked trees are never walked.
            back = {start}
            frontier = [start]
            while frontier:
                for waiter in pred[frontier.pop()]:
                    if waiter > start and waiter not in back:
                        back.add(waiter)
                        frontier.append(waiter)
            path = [start]
            branches = [iter(succ[start])]
            while branches:
                for holder in branches[-1]:
                    if holder == start:
                        cycles.append(list(path))
                        if len(cycles) >= limit:
                            return cycles
                    elif holder in back and holder not in path:
                        path.append(holder)
                        branches.append(iter(succ[holder]))
                        break
                else:
                    branches.pop()
                    path.pop()
        return cycles

    def knot_members(self) -> Set[int]:
        """Message ids with no escape path (matches the fixpoint oracle)."""
        return {m.id for m in find_deadlocked(self.messages.values())}


def build_wait_graph(messages: Iterable[Message]) -> WaitGraph:
    """Snapshot the wait-for structure over the blocked messages.

    A blocked message's alternatives are its usable allowed lanes (see
    :func:`repro.network.message.usable_lanes`): an occupied one is a wait
    edge, a free one an escape — the relation the oracle reduces.  Lanes
    name their occupants by id, so ``messages`` must hold every holder:
    the active messages, or a deadlocked set (its members wait only on
    each other).
    """
    graph = WaitGraph()
    by_id = {m.id: m for m in messages}
    blocked = [m for m in by_id.values() if m.is_blocked() and m.spans]
    for m in blocked:
        graph.messages[m.id] = m
    for m in blocked:
        edges: List[WaitEdge] = []
        free = 0
        for vc in usable_lanes(m.feasible_vcs):
            if vc.occupant is None:
                free += 1
            else:
                edges.append(
                    WaitEdge(
                        waiter=m,
                        holder=by_id[vc.occupant],
                        channel_index=vc.pc.index,
                        vc_index=vc.index,
                    )
                )
        graph.edges[m.id] = edges
        graph.free_alternatives[m.id] = free
    return graph


def describe_deadlock(
    graph: WaitGraph, names: Optional[Dict[int, str]] = None
) -> List[str]:
    """Human-readable lines describing the knot (for examples/debugging)."""
    knot = graph.knot_members()
    lines = []
    for message_id in sorted(knot):
        message = graph.messages[message_id]
        label = names.get(message_id, str(message_id)) if names else str(message_id)
        holders = sorted(
            names.get(h, str(h)) if names else str(h)
            for h in graph.holders_of(message)
        )
        lines.append(
            f"message {label} ({message.source}->{message.dest}) waits on "
            f"{', '.join(holders) or 'nothing'}"
        )
    return lines


def tree_depth_histogram(graph: WaitGraph) -> Dict[int, int]:
    """Distribution of wait-chain depths (how deep blocked trees grow).

    Depth of a blocked message = longest holder chain until a non-blocked
    holder (or a repeated message).  Used by the deviation analysis in
    EXPERIMENTS.md.
    """
    histogram: Dict[int, int] = {}
    for message in graph.messages.values():
        depth = _chain_depth(graph, message)
        histogram[depth] = histogram.get(depth, 0) + 1
    return histogram


def _chain_depth(graph: WaitGraph, message: Message, limit: int = 64) -> int:
    seen = {message.id}
    frontier = [message.id]
    depth = 0
    while frontier and depth < limit:
        nxt: List[int] = []
        for waiter_id in frontier:
            for edge in graph.edges.get(waiter_id, []):
                holder_id = edge.holder.id
                if holder_id in graph.messages and holder_id not in seen:
                    seen.add(holder_id)
                    nxt.append(holder_id)
        if not nxt:
            break
        depth += 1
        frontier = nxt
    return depth
