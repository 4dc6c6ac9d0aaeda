"""Ground-truth deadlock analysis and saturation estimation."""

from repro.analysis.channels import (
    ChannelSnapshot,
    hottest_nodes,
    inactivity_histogram,
    network_occupancy,
    occupancy_by_node,
    snapshot_channels,
    stalled_channels,
)
from repro.analysis.deadlock import find_deadlocked
from repro.analysis.saturation import SaturationResult, find_saturation
from repro.analysis.waitgraph import (
    WaitEdge,
    WaitGraph,
    build_wait_graph,
    describe_deadlock,
    tree_depth_histogram,
)

__all__ = [
    "ChannelSnapshot",
    "SaturationResult",
    "WaitEdge",
    "WaitGraph",
    "build_wait_graph",
    "describe_deadlock",
    "hottest_nodes",
    "inactivity_histogram",
    "network_occupancy",
    "occupancy_by_node",
    "snapshot_channels",
    "stalled_channels",
    "find_deadlocked",
    "find_saturation",
    "tree_depth_histogram",
]
