"""Network topologies: k-ary n-cubes (tori) and meshes.

The paper evaluates a bidirectional 8-ary 3-cube (512 nodes).  A topology
object answers purely structural questions — node/coordinate mapping,
neighbours, and the set of *minimal* directions a header may take toward a
destination.  It holds no simulation state.

A *direction* is a ``(dimension, sign)`` pair with ``sign`` in ``{+1, -1}``.
Each node owns one outgoing physical channel per direction (plus injection
and ejection ports, which belong to the router model, not the topology).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.network.types import NodeId

#: A hop direction: (dimension index, +1 or -1).
Direction = Tuple[int, int]


class Topology:
    """Base class for regular direct-network topologies.

    Subclasses provide wrap-around behaviour (torus) or not (mesh).

    Args:
        radix: nodes per dimension (``k``).
        dimensions: number of dimensions (``n``).
    """

    #: Whether rings wrap around (torus) or not (mesh).
    wraps: bool = False

    def __init__(self, radix: int, dimensions: int) -> None:
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        self.radix = radix
        self.dimensions = dimensions
        self.num_nodes = radix**dimensions
        # Pre-compute coordinate tables once; these are consulted on every
        # routing decision, so they must be O(1) lookups.
        self._coords = [self._compute_coords(n) for n in range(self.num_nodes)]
        self._directions = tuple(
            (dim, sign) for dim in range(dimensions) for sign in (+1, -1)
        )

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def _compute_coords(self, node: NodeId) -> Tuple[int, ...]:
        coords = []
        for _ in range(self.dimensions):
            coords.append(node % self.radix)
            node //= self.radix
        return tuple(coords)

    def coords(self, node: NodeId) -> Tuple[int, ...]:
        """Return the coordinate tuple of ``node`` (dimension 0 first)."""
        return self._coords[node]

    def node_at(self, coords: Sequence[int]) -> NodeId:
        """Return the node id for a coordinate tuple (inverse of coords)."""
        if len(coords) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} coordinates, got {len(coords)}"
            )
        node = 0
        for dim in reversed(range(self.dimensions)):
            c = coords[dim]
            if not 0 <= c < self.radix:
                raise ValueError(f"coordinate {c} out of range [0, {self.radix})")
            node = node * self.radix + c
        return node

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def directions(self) -> Iterator[Direction]:
        """Yield every direction a node may have an outgoing channel in
        (the same tuples every call)."""
        return iter(self._directions)

    def has_channel(self, node: NodeId, direction: Direction) -> bool:
        """Whether ``node`` has an outgoing channel in ``direction``."""
        raise NotImplementedError

    def neighbor(self, node: NodeId, direction: Direction) -> NodeId:
        """The node reached from ``node`` going one hop in ``direction``."""
        raise NotImplementedError

    def neighbors(self, node: NodeId) -> Iterator[Tuple[Direction, NodeId]]:
        """Yield ``(direction, neighbor)`` for every outgoing channel."""
        for direction in self.directions():
            if self.has_channel(node, direction):
                yield direction, self.neighbor(node, direction)

    # ------------------------------------------------------------------
    # Routing support
    # ------------------------------------------------------------------
    def minimal_directions(
        self, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        """All directions that reduce the distance from ``current`` to ``dest``.

        On a torus ring where both ways are equidistant (offset exactly
        ``k/2``) both directions are minimal and both are returned, which is
        what true fully adaptive *minimal* routing permits.
        Returns an empty tuple when ``current == dest``.
        """
        raise NotImplementedError

    def distance(self, a: NodeId, b: NodeId) -> int:
        """Minimal hop count between two nodes."""
        return sum(
            self._ring_distance(ca, cb)
            for ca, cb in zip(self.coords(a), self.coords(b))
        )

    def _ring_distance(self, a: int, b: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(radix={self.radix}, dimensions={self.dimensions})"


class KAryNCube(Topology):
    """Bidirectional k-ary n-cube (torus): every ring wraps around."""

    wraps = True

    def has_channel(self, node: NodeId, direction: Direction) -> bool:
        dim, _ = direction
        # Radix-2 rings would create duplicate (parallel) channels; treat
        # them like a mesh edge so each pair of nodes has one channel per
        # direction of travel.
        if self.radix == 2:
            coord = self.coords(node)[dim]
            return (coord == 0) == (direction[1] == +1)
        return True

    def neighbor(self, node: NodeId, direction: Direction) -> NodeId:
        dim, sign = direction
        coords = list(self.coords(node))
        coords[dim] = (coords[dim] + sign) % self.radix
        return self.node_at(coords)

    def _ring_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.radix - d)

    def minimal_directions(
        self, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        return _torus_minimal_directions(
            self.coords(current), self.coords(dest), self.radix
        )


class Mesh(Topology):
    """Bidirectional k-ary n-dimensional mesh: no wrap-around channels."""

    wraps = False

    def has_channel(self, node: NodeId, direction: Direction) -> bool:
        dim, sign = direction
        coord = self.coords(node)[dim]
        if sign == +1:
            return coord < self.radix - 1
        return coord > 0

    def neighbor(self, node: NodeId, direction: Direction) -> NodeId:
        dim, sign = direction
        coords = list(self.coords(node))
        new = coords[dim] + sign
        if not 0 <= new < self.radix:
            raise ValueError(f"no channel from {node} in direction {direction}")
        coords[dim] = new
        return self.node_at(coords)

    def _ring_distance(self, a: int, b: int) -> int:
        return abs(a - b)

    def minimal_directions(
        self, current: NodeId, dest: NodeId
    ) -> Tuple[Direction, ...]:
        dirs = []
        cur = self.coords(current)
        dst = self.coords(dest)
        for dim in range(self.dimensions):
            if dst[dim] > cur[dim]:
                dirs.append((dim, +1))
            elif dst[dim] < cur[dim]:
                dirs.append((dim, -1))
        return tuple(dirs)


@lru_cache(maxsize=16)
def shared_topology(kind: str, radix: int, dimensions: int) -> Topology:
    """One instance per shape (a topology holds no simulation state), so
    validating a config is a lookup and simulators of one shape share one
    coordinate table.  A bad shape raises every time: errors are not cached."""
    if kind == "torus":
        return KAryNCube(radix, dimensions)
    if kind == "mesh":
        return Mesh(radix, dimensions)
    raise ValueError(f"unknown topology {kind!r}; choose 'torus' or 'mesh'")


#: ``RoutingFunction.dimension_rows[dim][cur]`` as its distinct entries
#: (first-seen order) and each destination's position among them.
Row = Tuple[Tuple[Tuple[Direction, ...], ...], Tuple[int, ...]]
#: Each node's ``(direction, neighbour)`` links in ``neighbors()`` order; ``rows[dim][cur]``.
Wiring = Tuple[Tuple[Tuple[Tuple[Direction, NodeId], ...], ...], Tuple[Tuple[Row, ...], ...]]


@lru_cache(maxsize=16)
def shared_wiring(topology: Topology, routing: str) -> Wiring:
    """One wiring per shape and routing function, all tuples, so building a
    simulator asks neither the topology nor the routing function anything.
    A row holds each distinct candidate tuple once, so a router maps it
    through its channels once and its row shares the result."""
    # Imported here: repro.network.routing imports this module.
    from repro.network.routing import make_routing_function

    links = tuple(tuple(topology.neighbors(n)) for n in range(topology.num_nodes))
    rows = make_routing_function(routing).dimension_rows(topology)
    return links, tuple(tuple(map(_distinct_and_picks, by_cur)) for by_cur in rows)


def _distinct_and_picks(row: Tuple[Tuple[Direction, ...], ...]) -> Row:
    distinct = tuple(dict.fromkeys(row))
    return distinct, tuple(map(distinct.index, row))


@lru_cache(maxsize=None)
def _torus_minimal_offsets(offset: int, radix: int) -> Tuple[int, ...]:
    """Signs of minimal travel for a ring offset ``(dest - cur) mod radix``."""
    if offset == 0:
        return ()
    other = radix - offset
    if offset < other:
        return (+1,)
    if other < offset:
        return (-1,)
    return (+1, -1)  # exactly half-way round: both ways are minimal


def _torus_minimal_directions(
    cur: Tuple[int, ...], dst: Tuple[int, ...], radix: int
) -> Tuple[Direction, ...]:
    dirs = []
    for dim, (c, d) in enumerate(zip(cur, dst)):
        for sign in _torus_minimal_offsets((d - c) % radix, radix):
            dirs.append((dim, sign))
    return tuple(dirs)
