"""Routing functions.

A routing function maps ``(current node, destination)`` to the set of output
*directions* the header may take.  The paper's evaluation uses **true fully
adaptive minimal routing**: any virtual channel of any physical channel that
brings the message closer to its destination may be used, with every virtual
channel treated identically.  This maximizes routing freedom and is exactly
the regime in which deadlock becomes possible and recovery (hence detection)
is required.

A deterministic dimension-order router is provided as a deadlock-free
baseline (useful for tests: with it, the ground-truth analyzer must never
find a deadlock).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple, Type

from repro.network.topology import Direction, Topology
from repro.network.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.channel import PhysicalChannel, VirtualChannel


class RoutingFunction:
    """Strategy interface: which directions may the header take next."""

    #: Short name used by configs and reports.
    name = "abstract"

    #: Whether the function can introduce cyclic channel dependencies
    #: (and therefore requires deadlock detection + recovery).
    deadlock_prone = True

    #: Whether virtual channels within a physical channel are partitioned
    #: into classes (escape vs adaptive).  When False the simulator uses a
    #: faster any-free-VC path and the paper's physical-channel-level
    #: detection monitoring applies.
    uses_vc_classes = False

    #: Whether a hop joins the rows of :meth:`dimension_rows` over every
    #: unfinished dimension (adaptive) or takes only the lowest one's.
    lowest_dimension_only = False

    def candidates(
        self, topology: Topology, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        """Directions the header at ``current`` may take toward ``dest``.

        Empty iff ``current == dest`` (the message must eject).
        """
        raise NotImplementedError

    def dimension_rows(
        self, topology: Topology
    ) -> Tuple[Tuple[Tuple[Tuple[Direction, ...], ...], ...], ...]:
        """``rows[dim][cur][dst]``: :meth:`candidates` between two nodes that
        differ only in coordinate ``dim`` — what a router holds.  Minimal
        routing decides each dimension from that coordinate pair alone (ring
        offset, mesh edge, radix-2 channel filter), so a hop's candidates are
        these rows joined in ascending dimension order, order included."""
        n = topology.dimensions
        rows = []
        for dim in range(n):
            along = [
                topology.node_at([c * (i == dim) for i in range(n)])
                for c in range(topology.radix)
            ]
            rows.append(tuple(tuple([self.candidates(topology, a, b) for b in along])
                              for a in along))
        return tuple(rows)

    def allowed_vcs(
        self,
        topology: Topology,
        pc: "PhysicalChannel",
        vcs: Sequence["VirtualChannel"],
        current: NodeId,
        dest: NodeId,
    ) -> Sequence["VirtualChannel"]:
        """Which of ``vcs``, the lanes of ``pc``, this message's header may
        acquire.

        Only consulted when ``uses_vc_classes`` is True; the default grants
        every lane (true fully adaptive usage).
        """
        return vcs


class TrueFullyAdaptive(RoutingFunction):
    """All minimal directions, all virtual channels equivalent (the paper)."""

    name = "fully-adaptive"
    deadlock_prone = True

    def candidates(
        self, topology: Topology, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        dirs = topology.minimal_directions(current, dest)
        if len(dirs) > 1:
            # Radix-2 tori only materialize one channel per node pair;
            # drop directions with no physical channel behind them.
            dirs = tuple(d for d in dirs if topology.has_channel(current, d))
        return dirs


class DimensionOrder(RoutingFunction):
    """Deterministic e-cube routing: correct dimensions lowest-first.

    Deadlock-free on meshes.  On tori it can still deadlock across the
    wrap-around channels unless combined with VC classes, so it is used as a
    baseline on meshes and for micro-tests only.
    """

    name = "dimension-order"
    deadlock_prone = False
    lowest_dimension_only = True

    def candidates(
        self, topology: Topology, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        dirs = topology.minimal_directions(current, dest)
        if not dirs:
            return ()
        usable = [d for d in dirs if topology.has_channel(current, d)]
        lowest_dim = min(d[0] for d in usable)
        # On a torus a half-way-round offset yields two minimal directions in
        # the same dimension; break the tie toward +1 to stay deterministic.
        in_dim = [d for d in usable if d[0] == lowest_dim]
        in_dim.sort(key=lambda d: -d[1])
        return (in_dim[0],)


class DuatoAdaptive(TrueFullyAdaptive):
    """Adaptive routing with escape channels (deadlock *avoidance*).

    Duato's design [6, 7]: virtual channels are split into *adaptive*
    lanes, usable on any minimal physical channel, and *escape* lanes that
    implement a deadlock-free sub-function — here dimension-order routing
    with the classic dateline scheme for torus rings (escape class 0 while
    the remaining path in the current dimension still crosses the
    wrap-around link, class 1 after).  Because a blocked header can always
    fall back to the acyclic escape sub-network, the network never
    deadlocks: no detection or recovery mechanism is needed.

    This is the avoidance baseline the paper's introduction argues
    against: it trades routing freedom (the escape lanes are restricted)
    for the deadlock-freedom guarantee.  With the paper's 3 VCs per
    channel, lanes 0-1 are the two escape classes and lane 2+ is adaptive.

    Note: the paper's detection mechanisms assume all VCs of a physical
    channel are used identically, so they do not apply under this routing
    function; run it with ``detector.mechanism = "none"``.
    """

    name = "duato-adaptive"
    deadlock_prone = False
    uses_vc_classes = True

    #: Lanes reserved for the escape sub-function (dateline classes 0/1).
    num_escape_vcs = 2

    # ``candidates`` is inherited: the same physical channels, of which the
    # escape direction (dimension-order) is always one.

    def escape_direction(
        self, topology: Topology, current: NodeId, dest: NodeId
    ) -> Tuple[int, int]:
        """The dimension-order next hop (lowest unfinished dimension)."""
        usable = [
            d
            for d in topology.minimal_directions(current, dest)
            if topology.has_channel(current, d)
        ]
        lowest = min(d[0] for d in usable)
        in_dim = sorted((d for d in usable if d[0] == lowest),
                        key=lambda d: -d[1])
        return in_dim[0]

    def escape_class(
        self, topology: Topology, current: NodeId, dest: NodeId, dim: int,
        sign: int,
    ) -> int:
        """Dateline class on the ring of ``dim``: 0 before crossing the
        wrap-around link, 1 after (computable statelessly from how the
        remaining dimension-order path reaches the destination)."""
        if not topology.wraps or topology.radix == 2:
            return 0
        c = topology.coords(current)[dim]
        d = topology.coords(dest)[dim]
        if sign == +1:
            return 0 if c > d else 1  # still has to wrap / already past
        return 0 if c < d else 1

    def allowed_vcs(
        self,
        topology: Topology,
        pc: "PhysicalChannel",
        vcs: Sequence["VirtualChannel"],
        current: NodeId,
        dest: NodeId,
    ) -> Sequence["VirtualChannel"]:
        num_escape = min(self.num_escape_vcs, max(len(vcs) - 1, 1))
        lanes = list(vcs[num_escape:])  # adaptive lanes: always allowed
        direction = pc.direction
        if direction is not None:
            escape_dir = self.escape_direction(topology, current, dest)
            if direction == escape_dir:
                cls = self.escape_class(
                    topology, current, dest, direction[0], direction[1]
                )
                if cls < num_escape:
                    lanes.append(vcs[cls])
        else:
            # Injection/ejection ports carry no class restriction.
            return vcs
        return lanes


_ROUTING_FUNCTIONS = {
    TrueFullyAdaptive.name: TrueFullyAdaptive,
    DimensionOrder.name: DimensionOrder,
    DuatoAdaptive.name: DuatoAdaptive,
}


def make_routing_function(name: str) -> RoutingFunction:
    """Instantiate a routing function by config name."""
    return routing_function_class(name)()


def routing_function_class(name: str) -> Type[RoutingFunction]:
    """The routing function a config name selects; ``ValueError`` if none."""
    try:
        return _ROUTING_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown routing function {name!r}; "
            f"choose from {sorted(_ROUTING_FUNCTIONS)}"
        ) from None


def routing_function_names() -> Tuple[str, ...]:
    """Names accepted by :func:`make_routing_function`."""
    return tuple(sorted(_ROUTING_FUNCTIONS))
