"""NDM-precise: the idealized form of the paper's tree-root heuristic.

The NDM approximates "is the message I am waiting on the root of the tree
of blocked messages?" with one bit of channel-activity history (the I
flag) shared per physical channel.  This variant computes the same
predicate exactly, with per-message state:

    A blocked message is *root-adjacent* iff, at some routing attempt
    since it blocked, one of the virtual channels it can use was held by a
    message whose header was not blocked.

Detection then requires root-adjacency plus the ordinary all-DT condition.
This captures the paper's intent (Figures 2-5 behave identically) without
the I-flag's two noise sources: per-physical-channel sharing of the G/P
bit between up to V waiting headers, and activity/blockedness aliasing on
multiplexed channels.  Comparing ``ndm`` against ``ndm-precise`` in the
ablation bench quantifies how much detection accuracy the one-bit hardware
approximation costs on this substrate.

It remains a *local* mechanism in spirit — a router could track holder
blockedness via one extra flow-control bit per virtual channel — but it is
not what the paper's hardware (Fig. 6) implements, so it is shipped as an
ablation, not as the reproduction target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.detector import CounterDetector, DeadlockDetector
from repro.network.message import Message, usable_lanes

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class PreciseNDM(DeadlockDetector):
    """Witness-based root-adjacency detection (idealized NDM)."""

    name = "ndm-precise"

    #: Every attempt may record a witness (per-attempt side effect), so
    #: blocked messages must keep re-routing each cycle under both engines.
    can_sleep_blocked = False

    def __init__(self, threshold: int) -> None:
        super().__init__(threshold)
        # message id -> cycle at which it witnessed a non-blocked holder
        # (None while it has not).
        self._witness: Dict[int, object] = {}

    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        witness = self._witness
        if first_attempt:
            witness[message.id] = None
        if witness[message.id] is None and self._sees_advancing_holder(
            message, sim.messages
        ):
            witness[message.id] = cycle
        witnessed = witness[message.id]
        if witnessed is None:
            return False
        # The witnessed root's progress resets the hardware counter; a
        # granted-but-not-yet-moved holder has not transmitted a flit, so
        # detection needs a full quiet t2 *after* the witness as well.
        if cycle - witnessed <= self.threshold:
            return False
        return CounterDetector.score(message, cycle) > self.threshold

    @staticmethod
    def _sees_advancing_holder(message: Message, messages: Dict[int, Message]) -> bool:
        for vc in usable_lanes(message.feasible_vcs):
            occupant = vc.occupant
            if occupant is not None and not messages[occupant].is_blocked():
                return True
        return False

    def on_message_routed(self, message: Message, cycle: int) -> None:
        self._witness.pop(message.id, None)

    def on_message_removed(self, message: Message, cycle: int) -> None:
        self._witness.pop(message.id, None)
