"""Shared identifiers, enumerations and small value types for the network.

The simulator models a direct network of routers connected by unidirectional
*physical channels*, each multiplexed into several *virtual channels* (VCs).
Identifiers here are deliberately plain (ints / small frozen dataclasses) so
they hash fast and print readably in traces and test failures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: A node (router) identifier: dense integers ``0 .. num_nodes - 1``.
NodeId = int

#: A message identifier: dense integers in injection order.
MessageId = int


class PortKind(enum.Enum):
    """The role of a physical channel relative to a router."""

    #: Router-to-router link.
    NETWORK = "network"
    #: Node-to-router link used to inject new messages.
    INJECTION = "injection"
    #: Router-to-node link used to deliver (eject) messages.
    EJECTION = "ejection"


class MessageStatus(enum.Enum):
    """Lifecycle of a message from generation to delivery."""

    #: Generated but its header has not yet entered an injection channel.
    QUEUED = "queued"
    #: At least the header occupies a virtual channel.
    IN_NETWORK = "in-network"
    #: Detected as deadlocked and currently being recovered.
    RECOVERING = "recovering"
    #: Every flit has been ejected at the destination.
    DELIVERED = "delivered"


@dataclass(frozen=True)
class DetectionEvent:
    """One deadlock-detection verdict raised by a detection mechanism.

    Attributes:
        cycle: simulation cycle at which the message was marked.
        message_id: the marked message.
        node: router holding the message header when it was marked.
        mechanism: short name of the detector that raised it.
        truly_deadlocked: filled in by the ground-truth analyzer when
            enabled; ``None`` when the analyzer did not run for this event.
    """

    cycle: int
    message_id: MessageId
    node: NodeId
    mechanism: str
    truly_deadlocked: bool | None = None
