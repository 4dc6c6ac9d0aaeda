"""Message destination patterns used in the paper's evaluation (Sec. 4).

The paper evaluates: uniform, uniform with locality, bit-reversal,
perfect-shuffle, butterfly, and a hot-spot pattern in which 5 % of messages
are destined for one node.

Bit-permutation patterns are defined on the binary representation of the
node index and therefore need a power-of-two node count (the paper's 8-ary
3-cube has 512 = 2**9 nodes; the quick 8-ary 2-cube has 64 = 2**6).
A permutation may map a node to itself; such nodes generate no traffic
(``destination`` returns ``None``), the standard convention.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, Type

from repro.network.topology import Topology
from repro.network.types import NodeId


class TrafficPattern:
    """Strategy interface mapping a source to a destination draw."""

    name = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def destination(self, source: NodeId, rng: random.Random) -> Optional[NodeId]:
        """Destination for a message generated at ``source``.

        Returns ``None`` when the pattern generates no traffic from
        ``source`` (fixed-permutation patterns with a fixed point there).
        """
        raise NotImplementedError

    def sending_fraction(self) -> float:
        """Fraction of nodes that generate traffic (permutation patterns
        have fixed points which stay silent)."""
        return 1.0


class UniformPattern(TrafficPattern):
    """Every other node equally likely."""

    name = "uniform"

    def destination(self, source: NodeId, rng: random.Random) -> Optional[NodeId]:
        dest = rng.randrange(self.topology.num_nodes - 1)
        if dest >= source:
            dest += 1
        return dest


class LocalityPattern(TrafficPattern):
    """Uniform among nodes within ``radius`` hops per dimension.

    The paper's "uniform distribution of message destinations with locality"
    sustains ~3x the uniform injection rate, implying a mean distance of
    roughly 2 hops on the 8-ary 3-cube; per-dimension radius 1 (the default)
    matches that.  Destinations are drawn uniformly from the hypercube of
    offsets ``[-radius, +radius]`` per dimension, excluding the all-zero
    offset.
    """

    name = "locality"

    def __init__(self, topology: Topology, radius: int = 1) -> None:
        super().__init__(topology)
        if radius < 1:
            raise ValueError(f"locality radius must be >= 1, got {radius}")
        if 2 * radius + 1 > topology.radix:
            raise ValueError(
                f"locality radius {radius} too large for radix {topology.radix}"
            )
        self.radius = radius

    def destination(self, source: NodeId, rng: random.Random) -> Optional[NodeId]:
        span = 2 * self.radius + 1
        coords = list(self.topology.coords(source))
        while True:
            offsets = [
                rng.randrange(span) - self.radius
                for _ in range(self.topology.dimensions)
            ]
            if any(offsets):
                break
        dest_coords = [
            (c + o) % self.topology.radix for c, o in zip(coords, offsets)
        ]
        return self.topology.node_at(dest_coords)


class _BitPermutationPattern(TrafficPattern):
    """Base for fixed permutations of the node-index bits."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        n = topology.num_nodes
        if n & (n - 1):
            raise ValueError(
                f"{self.name} traffic needs a power-of-two node count, got {n}"
            )
        self.bits = n.bit_length() - 1

    def permute(self, index: int) -> int:
        raise NotImplementedError

    def destination(self, source: NodeId, rng: random.Random) -> Optional[NodeId]:
        dest = self.permute(source)
        return None if dest == source else dest

    def sending_fraction(self) -> float:
        n = self.topology.num_nodes
        fixed = sum(1 for i in range(n) if self.permute(i) == i)
        return (n - fixed) / n


class BitReversalPattern(_BitPermutationPattern):
    """Destination index = source index with its bits reversed."""

    name = "bit-reversal"

    def permute(self, index: int) -> int:
        out = 0
        for _ in range(self.bits):
            out = (out << 1) | (index & 1)
            index >>= 1
        return out


class PerfectShufflePattern(_BitPermutationPattern):
    """Destination index = source index rotated left by one bit."""

    name = "perfect-shuffle"

    def permute(self, index: int) -> int:
        mask = (1 << self.bits) - 1
        return ((index << 1) | (index >> (self.bits - 1))) & mask


class ButterflyPattern(_BitPermutationPattern):
    """Destination index = source index with MSB and LSB swapped."""

    name = "butterfly"

    def permute(self, index: int) -> int:
        hi = 1 << (self.bits - 1)
        lo = 1
        high_bit = 1 if index & hi else 0
        low_bit = index & lo
        out = index & ~(hi | lo)
        if low_bit:
            out |= hi
        if high_bit:
            out |= lo
        return out


class HotSpotPattern(TrafficPattern):
    """Uniform traffic except ``fraction`` of messages target one node.

    The paper modifies the uniform distribution so that 5 % of the messages
    are destined for the same node.
    """

    name = "hot-spot"

    def __init__(
        self,
        topology: Topology,
        fraction: float = 0.05,
        hot_node: Optional[NodeId] = None,
    ) -> None:
        super().__init__(topology)
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"hot-spot fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        # Default hot node: the network center-ish node (node with all
        # coordinates radix // 2), matching common practice.
        if hot_node is None:
            hot_node = topology.node_at(
                [topology.radix // 2] * topology.dimensions
            )
        if not 0 <= hot_node < topology.num_nodes:
            raise ValueError(f"hot node {hot_node} out of range")
        self.hot_node = hot_node
        self._uniform = UniformPattern(topology)

    def destination(self, source: NodeId, rng: random.Random) -> Optional[NodeId]:
        if rng.random() < self.fraction and source != self.hot_node:
            return self.hot_node
        return self._uniform.destination(source, rng)


_PATTERNS: Dict[str, Type[TrafficPattern]] = {
    cls.name: cls
    for cls in (
        UniformPattern,
        LocalityPattern,
        BitReversalPattern,
        PerfectShufflePattern,
        ButterflyPattern,
        HotSpotPattern,
    )
}


def make_pattern(name: str, topology: Topology, **params: object) -> TrafficPattern:
    """Instantiate a traffic pattern by config name."""
    return pattern_class(name)(topology, **params)  # type: ignore[arg-type]


def pattern_class(name: str) -> Type[TrafficPattern]:
    """The pattern a config name selects; ``ValueError`` if none does."""
    try:
        return _PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic pattern {name!r}; choose from {sorted(_PATTERNS)}"
        ) from None


def pattern_names() -> Tuple[str, ...]:
    """Names accepted by :func:`make_pattern`."""
    return tuple(sorted(_PATTERNS))
