"""Router: the per-node bundle of channels and local allocation state.

A router owns its *outgoing* physical channels (network outputs plus the
ejection ports that deliver flits to the local node) and keeps references to
its *incoming* ones (network inputs plus the local injection ports).  It also
tracks the number of busy network output virtual channels, which drives the
message injection limitation mechanism of the paper's network model
(López & Duato [11]; López, Martínez, Petrini & Duato [12]).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.topology import Direction
from repro.network.types import NodeId


class Router:
    """All channel endpoints attached to one node.

    Attributes:
        node: the node id this router serves.
        output_pcs: outgoing network channels, keyed by direction.
        input_pcs: incoming network channels (any direction order).
        injection_pcs: node-to-router ports through which new messages enter.
        ejection_pcs: router-to-node ports that consume delivered flits.
        route_rows: the routing function as data, ``[dim][dest_coordinate]``
            -> output channels toward it; ``ejection_row``: an arrival's.
        busy_network_vcs: currently occupied network-output virtual channels
            (the quantity the injection limitation thresholds against).
    """

    __slots__ = (
        "node",
        "output_pcs",
        "output_pc_list",
        "input_pcs",
        "injection_pcs",
        "ejection_pcs",
        "route_rows",
        "ejection_row",
        "busy_network_vcs",
    )

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self.output_pcs: Dict[Direction, PhysicalChannel] = {}
        self.output_pc_list: List[PhysicalChannel] = []
        self.input_pcs: List[PhysicalChannel] = []
        self.injection_pcs: List[PhysicalChannel] = []
        self.ejection_pcs: List[PhysicalChannel] = []
        self.route_rows: Tuple[Tuple[Tuple[PhysicalChannel, ...], ...], ...] = ()
        self.ejection_row: Tuple[PhysicalChannel, ...] = ()
        self.busy_network_vcs = 0

    # ------------------------------------------------------------------
    # Allocation bookkeeping
    # ------------------------------------------------------------------
    def note_network_vc_allocated(self) -> None:
        self.busy_network_vcs += 1

    def note_network_vc_released(self) -> None:
        self.busy_network_vcs -= 1
        if self.busy_network_vcs < 0:
            raise RuntimeError(f"router {self.node}: negative busy VC count")

    def total_network_vcs(self) -> int:
        return sum(pc.num_vcs for pc in self.output_pc_list)

    # ------------------------------------------------------------------
    # Queries used by detection mechanisms
    # ------------------------------------------------------------------
    def header_input_pcs(self) -> List[PhysicalChannel]:
        """Input channels that can contain a waiting message header.

        These are the channels whose G/P flag the NDM's simple promotion
        rule flips to G when any I flag of this router resets.
        """
        return self.input_pcs + self.injection_pcs

    def free_injection_vc(
        self, lanes: Sequence[VirtualChannel]
    ) -> Optional[VirtualChannel]:
        """A free virtual channel on any injection port, or ``None``.

        The lowest set bit of the free mask is the lowest-index free lane
        — the same lane a scan of the port's lanes in the network's flat
        ``lanes`` would have returned.  The free mask is ANDed with the
        channel's ``usable_mask`` so faulted injection ports (router
        stalls) accept nothing; the mask is all-ones on healthy channels.
        """
        for pc in self.injection_pcs:
            mask = pc.free_mask & pc.usable_mask
            if mask:
                return lanes[pc.lane0 + (mask & -mask).bit_length() - 1]
        return None

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(node={self.node}, outs={len(self.output_pc_list)}, "
            f"ins={len(self.input_pcs)}, inj={len(self.injection_pcs)}, "
            f"ej={len(self.ejection_pcs)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
