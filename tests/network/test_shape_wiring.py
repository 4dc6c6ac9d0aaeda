"""Guard for the per-shape wiring cache a simulator is built from.

``shared_wiring`` holds each node's links and the routing function's
dimension rows once per shape; ``Simulator._build_network`` maps them
through fresh channels.  Every channel index, ``lane0`` and route row must
come out as the plain construction below (asking the topology and the
routing function directly) builds them: routing draws by position in those
rows, so any difference is a different run.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.network.config import SimulationConfig
from repro.network.routing import make_routing_function, routing_function_names
from repro.network.simulator import Simulator
from repro.network.topology import shared_wiring
from repro.network.types import PortKind

#: (topology, radix, dimensions): the quick and the paper's network, the
#: radix-2 channel filter, mesh edge routers and an odd ring.
SHAPES = {
    "8x8-torus": ("torus", 8, 2),
    "8-ary-3-cube": ("torus", 8, 3),
    "2-ary-3-cube": ("torus", 2, 3),
    "4x4-mesh": ("mesh", 4, 2),
    "5-ary-2-cube": ("torus", 5, 2),
}


def _config(shape: str, routing: str, ports: int) -> SimulationConfig:
    topology, radix, dimensions = SHAPES[shape]
    config = SimulationConfig(
        topology=topology,
        radix=radix,
        dimensions=dimensions,
        routing=routing,
        injection_ports=ports,
        ejection_ports=ports,
    )
    config.detector.mechanism = "none"
    return config


def _reference(config: SimulationConfig) -> Dict[str, Any]:
    """Channel and router wiring by channel index, built the plain way:
    network channels node by node in ``neighbors()`` order, then each
    node's injection and ejection ports, rows mapped per router."""
    topo = config.build_topology()
    vcs = config.vcs_per_channel
    nodes = range(topo.num_nodes)
    channels: List[Any] = []
    outputs: List[Dict[Any, int]] = [{} for _ in nodes]
    inputs: List[List[int]] = [[] for _ in nodes]
    injection: List[List[int]] = [[] for _ in nodes]
    ejection: List[List[int]] = [[] for _ in nodes]

    def channel(kind, src, dst, direction=None):
        index = len(channels)
        channels.append((index, kind, src, dst, direction, index * vcs))
        return index

    for node in nodes:
        for direction, neighbor in topo.neighbors(node):
            pc = channel(PortKind.NETWORK, node, neighbor, direction)
            outputs[node][direction] = pc
            inputs[neighbor].append(pc)
    for node in nodes:
        injection[node] = [
            channel(PortKind.INJECTION, None, node)
            for _ in range(config.injection_ports)
        ]
        ejection[node] = [
            channel(PortKind.EJECTION, node, None)
            for _ in range(config.ejection_ports)
        ]
    rows = make_routing_function(config.routing).dimension_rows(topo)
    routers = []
    for node in nodes:
        outs = outputs[node]
        routers.append(
            {
                "output_pcs": list(outs.items()),
                "output_pc_list": list(outs.values()),
                "input_pcs": inputs[node],
                "injection_pcs": injection[node],
                "ejection_pcs": ejection[node],
                "route_rows": [
                    [[outs[d] for d in dirs] for dirs in by_cur[c]]
                    for by_cur, c in zip(rows, topo.coords(node))
                ],
                "ejection_row": ejection[node],
            }
        )
    return {"channels": channels, "routers": routers}


def _built(sim: Simulator) -> Dict[str, Any]:
    """The same view of a built simulator."""
    channels = [
        (pc.index, pc.kind, pc.src_node, pc.dst_node, pc.direction, pc.lane0)
        for pc in sim.channels
    ]

    def ids(pcs):
        return [pc.index for pc in pcs]

    routers = [
        {
            "output_pcs": [(d, pc.index) for d, pc in r.output_pcs.items()],
            "output_pc_list": ids(r.output_pc_list),
            "input_pcs": ids(r.input_pcs),
            "injection_pcs": ids(r.injection_pcs),
            "ejection_pcs": ids(r.ejection_pcs),
            "route_rows": [[ids(entry) for entry in row] for row in r.route_rows],
            "ejection_row": ids(r.ejection_row),
        }
        for r in sim.routers
    ]
    return {"channels": channels, "routers": routers}


@pytest.mark.parametrize("ports", [1, 4])
@pytest.mark.parametrize("routing", routing_function_names())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_build_matches_the_plain_construction(shape, routing, ports):
    config = _config(shape, routing, ports)
    sim = Simulator(config)
    assert _built(sim) == _reference(config)
    assert len(sim.lanes) == len(sim.channels) * config.vcs_per_channel
    assert all(type(r.route_rows) is tuple for r in sim.routers)


@pytest.mark.parametrize("routing", routing_function_names())
def test_a_second_simulator_of_a_shape_reuses_the_entry(routing):
    config = _config("5-ary-2-cube", routing, 1)
    Simulator(config)
    before = shared_wiring.cache_info()
    Simulator(config.replace(seed=2, injection_ports=4, ejection_ports=4))
    after = shared_wiring.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("routing", routing_function_names())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_entry_holds_only_tuples(shape, routing):
    """Shared by every simulator of the shape, so nothing in it may be
    mutable: tuples all the way down to node ids and direction signs."""
    config = _config(shape, routing, 1)
    stack: List[Any] = [shared_wiring(config.build_topology(), routing)]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        else:
            assert type(item) is int, type(item)
