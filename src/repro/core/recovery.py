"""Deadlock recovery schemes.

Once the detection mechanism marks a message, a recovery mechanism must
actually break the (presumed) deadlock.  The paper's context is the
software-based **progressive** recovery of Martínez et al. [13]: the
deadlocked packet is absorbed by the node holding its header and forwarded
from there, freeing every channel it held, without killing it.  The classic
**regressive** alternative (abort-and-retry, e.g. compressionless routing
[10]) kills the worm and re-injects it at the original source.

Both schemes are modelled at the message level: the worm's virtual channels
are released immediately (absorption into node-local software buffers is
assumed to proceed off the critical path) and the message re-enters the
network through an injection port — at the header node for progressive
recovery (with priority and exempt from the injection limitation) and at the
original source for regressive recovery (as a normal new message).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Type

from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class RecoveryManager:
    """Strategy interface invoked when a message is marked as deadlocked.

    Stateless: the simulator passes itself to every call, so a scheme
    holds no reference back to the network it acts on.
    """

    name = "abstract"

    def recover(self, sim: "Simulator", message: Message, cycle: int) -> None:
        raise NotImplementedError


class ProgressiveRecovery(RecoveryManager):
    """Absorb the worm at the header node and deliver via recovery lane [13].

    The software-based scheme absorbs the deadlocked packet into node
    memory (off the critical path) and delivers it through dedicated
    recovery resources with guaranteed forward progress.  We model that
    lane as an out-of-band path with latency

        remaining_distance + message_length + overhead

    cycles, which preserves the property that recovery bandwidth is scarce
    compared to normal delivery (recovered messages are slow) without
    letting them re-enter — and re-congest — the network.
    """

    name = "progressive"

    #: Fixed software-handling overhead added to every recovery, in cycles
    #: (interrupt + buffer management in [13]'s software scheme).
    software_overhead = 16

    def recover(self, sim: "Simulator", message: Message, cycle: int) -> None:
        node = message.header_router()
        if node is None:
            node = message.inject_node
        sim.free_worm(message, cycle)
        message.recoveries += 1
        distance = sim.topology.distance(node, message.dest)
        ready = cycle + distance + message.length + self.software_overhead
        sim.schedule_recovery_delivery(message, ready)
        sim.stats.recoveries += 1
        if sim.measuring:
            sim.stats.recoveries_measured += 1


class ProgressiveReinjection(RecoveryManager):
    """Absorb the worm at the header node and re-inject it from there.

    Variant of progressive recovery in which the absorbed packet re-enters
    the network as a normal message from the node that detected it (with
    injection priority and exempt from the injection limitation).  Under
    deep saturation the re-injected message can block and be re-detected,
    which is why :class:`ProgressiveRecovery` is the default.
    """

    name = "progressive-reinject"

    def recover(self, sim: "Simulator", message: Message, cycle: int) -> None:
        node = message.header_router()
        if node is None:
            node = message.inject_node
        sim.free_worm(message, cycle)
        message.recoveries += 1
        message.is_recovery_reinjection = True
        message.reset_for_reinjection(node, cycle)
        sim.enqueue_recovery(message, node)
        sim.stats.recoveries += 1
        if sim.measuring:
            sim.stats.recoveries_measured += 1


class RegressiveRecovery(RecoveryManager):
    """Abort-and-retry: kill the worm, re-inject at the original source."""

    name = "regressive"

    def recover(self, sim: "Simulator", message: Message, cycle: int) -> None:
        sim.free_worm(message, cycle)
        message.retries += 1
        message.reset_for_reinjection(message.source, cycle)
        sim.enqueue_source(message, message.source)
        sim.stats.aborts += 1
        if sim.measuring:
            sim.stats.aborts_measured += 1


class NoRecovery(RecoveryManager):
    """Leave marked messages in place (passive measurement runs).

    The message stays blocked holding its channels; a true deadlock will
    persist until the simulation ends.  Useful to study raw detection
    behaviour without the feedback recovery introduces.
    """

    name = "none"

    def recover(self, sim: "Simulator", message: Message, cycle: int) -> None:
        # The mark itself was already recorded by the simulator.
        return


#: Every recovery scheme, by config name.
RECOVERY_SCHEMES: Dict[str, Type[RecoveryManager]] = {
    scheme.name: scheme
    for scheme in (
        ProgressiveRecovery,
        ProgressiveReinjection,
        RegressiveRecovery,
        NoRecovery,
    )
}


def make_recovery(name: str) -> RecoveryManager:
    """Instantiate a recovery scheme by config name."""
    try:
        return RECOVERY_SCHEMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown recovery scheme {name!r}; "
            f"choose from {sorted(RECOVERY_SCHEMES)}"
        ) from None
