"""Crude timeout-based detection mechanisms (the paper's Section 1 survey).

Three classic heuristics are provided as baselines:

* :class:`HeaderBlockedTimeout` — Disha-style (Anjan & Pinkston [2, 3]):
  a message is presumed deadlocked when its header has been continuously
  blocked at a router for more than the threshold.
* :class:`SourceAgeTimeout` — Reeves, Gehringer & Chandiramani [16]: a
  message is presumed deadlocked when the time since it was injected
  exceeds the threshold.
* :class:`InjectionStallTimeout` — Kim, Liu & Chien's compressionless
  routing criterion [10]: deadlock is presumed when the time since the
  *last flit was injected at the source* exceeds the threshold (only
  meaningful while the message still has flits at the source).

The paper reports that its previous mechanism (PDM) already beat crude
timeouts by roughly 10x in false detections, and NDM gains another 10x.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.detector import DeadlockDetector
from repro.network.message import Message
from repro.network.types import MessageStatus

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class HeaderBlockedTimeout(DeadlockDetector):
    """Mark a message once its header has been blocked for > threshold."""

    name = "timeout"

    @staticmethod
    def score(message: Message, cycle: int) -> int:
        """Cycles the header has been continuously blocked."""
        since = message.blocked_since
        return 0 if since is None else cycle - since

    @staticmethod
    def deadline(message: Message, cycle: int, threshold: int) -> Optional[int]:
        """The timeout depends only on the blocking instant — exact."""
        since = message.blocked_since
        return None if since is None else since + threshold + 1

    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        """Fire once the header's blocked age is over the threshold."""
        return self.score(message, cycle) > self.threshold


class SourceAgeTimeout(DeadlockDetector):
    """Mark a message once its time-in-network exceeds the threshold.

    Checked once per cycle over the active messages, as the original
    proposal detects at the source rather than at the blocked header.  Only
    in-network, not-yet-marked messages are eligible.
    """

    name = "source-age"
    needs_periodic_check = True

    @staticmethod
    def score(message: Message, cycle: int) -> int:
        """Cycles since the message was injected."""
        since = message.inject_cycle
        return 0 if since is None else cycle - since

    @staticmethod
    def deadline(message: Message, cycle: int, threshold: int) -> Optional[int]:
        """The injection instant never moves once set — exact."""
        since = message.inject_cycle
        return None if since is None else since + threshold + 1

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """None: the rule never fires on a routing attempt."""
        return None

    def periodic_check(self, sim: "Simulator", cycle: int) -> List[Message]:
        """The eligible messages whose score is over the threshold."""
        score, threshold = self.score, self.threshold
        in_network = MessageStatus.IN_NETWORK
        return [
            m
            for m in sim.active_messages
            if m.status is in_network
            and not m.marked_deadlocked
            and score(m, cycle) > threshold
        ]


class InjectionStallTimeout(SourceAgeTimeout):
    """Mark a message when source injection has stalled for > threshold.

    The same source-side sweep over a different instant.  Applies only
    while the message still has flits waiting at the source: once the
    tail has left, the source can no longer observe the worm.
    """

    name = "injection-stall"

    @staticmethod
    def score(message: Message, cycle: int) -> int:
        """Cycles since the source last injected a flit of the message."""
        since = message.last_source_flit_cycle
        if since is None or message.flits_at_source <= 0:
            return 0
        return cycle - since

    @staticmethod
    def deadline(message: Message, cycle: int, threshold: int) -> Optional[int]:
        """A lower bound (the instant only moves later); ``None`` once drained."""
        since = message.last_source_flit_cycle
        if since is None or message.flits_at_source <= 0:
            return None
        return since + threshold + 1
