"""Per-channel utilization and occupancy analysis.

Channel-level views of a (running or finished) simulation: which links
carry the traffic, where the stalled regions are, how evenly the pattern
loads the network.  Used by the saturation/pattern examples and the
hot-spot tests; everything is computed on demand from simulator state, no
per-cycle collection cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.network.types import PortKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


@dataclass(frozen=True)
class ChannelSnapshot:
    """Instantaneous state of one physical channel."""

    index: int
    kind: str
    src_node: object
    dst_node: object
    occupied_vcs: int
    total_vcs: int
    buffered_flits: int
    inactivity: int

    @property
    def occupancy(self) -> float:
        return self.occupied_vcs / self.total_vcs


def snapshot_channels(sim: "Simulator") -> List[ChannelSnapshot]:
    """State of every physical channel at the current cycle."""
    cycle = sim.cycle
    out = []
    for pc in sim.channels:
        out.append(
            ChannelSnapshot(
                index=pc.index,
                kind=pc.kind.value,
                src_node=pc.src_node,
                dst_node=pc.dst_node,
                occupied_vcs=pc.occupied_count,
                total_vcs=pc.num_vcs,
                buffered_flits=sum(vc.flits for vc in pc.vcs(sim.lanes)),
                inactivity=pc.inactivity(cycle),
            )
        )
    return out


def network_occupancy(sim: "Simulator") -> float:
    """Fraction of network virtual channels currently held."""
    held = total = 0
    for pc in sim.channels:
        if pc.kind is not PortKind.NETWORK:
            continue
        held += pc.occupied_count
        total += pc.num_vcs
    return held / total if total else 0.0


def stalled_channels(sim: "Simulator", threshold: int) -> List[ChannelSnapshot]:
    """Occupied network channels inactive longer than ``threshold``."""
    return [
        snap
        for snap in snapshot_channels(sim)
        if snap.kind == PortKind.NETWORK.value
        and snap.occupied_vcs > 0
        and snap.inactivity > threshold
    ]


def occupancy_by_node(sim: "Simulator") -> Dict[int, float]:
    """Mean network-output VC occupancy per node (hot-region map)."""
    result: Dict[int, float] = {}
    for router in sim.routers:
        held = sum(pc.occupied_count for pc in router.output_pc_list)
        total = sum(pc.num_vcs for pc in router.output_pc_list)
        result[router.node] = held / total if total else 0.0
    return result


def hottest_nodes(sim: "Simulator", count: int = 5) -> List[Tuple[int, float]]:
    """The ``count`` nodes with the highest output-VC occupancy."""
    ranked = sorted(
        occupancy_by_node(sim).items(), key=lambda item: -item[1]
    )
    return ranked[:count]


def inactivity_histogram(
    sim: "Simulator", bucket: int = 4, cap: int = 64
) -> Dict[int, int]:
    """Histogram of occupied network channels by inactivity bucket.

    Bucket key ``b`` counts channels with ``b <= inactivity < b + bucket``
    (the last bucket, at ``cap``, absorbs everything longer).  This is the
    distribution underlying the detection mechanisms: the paper's
    thresholds slice exactly this histogram.
    """
    if bucket < 1:
        raise ValueError(f"bucket must be >= 1, got {bucket}")
    histogram: Dict[int, int] = {}
    cycle = sim.cycle
    for pc in sim.channels:
        if pc.kind is not PortKind.NETWORK or pc.occupied_count == 0:
            continue
        value = min(pc.inactivity(cycle), cap)
        key = (value // bucket) * bucket
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
