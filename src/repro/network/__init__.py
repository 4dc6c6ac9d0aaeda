"""The wormhole network simulator substrate."""

from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import (
    DetectorConfig,
    SimulationConfig,
    TrafficConfig,
    paper_config,
    quick_config,
)
from repro.network.message import Message
from repro.network.router import Router
from repro.network.routing import (
    DimensionOrder,
    DuatoAdaptive,
    RoutingFunction,
    TrueFullyAdaptive,
    make_routing_function,
    routing_function_names,
)
from repro.network.simulator import Simulator
from repro.network.topology import KAryNCube, Mesh, Topology
from repro.network.tracing import Tracer, format_event
from repro.network.types import (
    DetectionEvent,
    MessageStatus,
    PortKind,
)

__all__ = [
    "DetectionEvent",
    "DetectorConfig",
    "DimensionOrder",
    "DuatoAdaptive",
    "KAryNCube",
    "Mesh",
    "Message",
    "MessageStatus",
    "PhysicalChannel",
    "PortKind",
    "Router",
    "RoutingFunction",
    "SimulationConfig",
    "Simulator",
    "Topology",
    "Tracer",
    "format_event",
    "TrafficConfig",
    "TrueFullyAdaptive",
    "VirtualChannel",
    "make_routing_function",
    "paper_config",
    "quick_config",
    "routing_function_names",
]
