"""Edge-chasing probe detector (the paper's "probe-style" competitor).

The paper dismisses probe-based distributed deadlock detection as costly;
this detector fields an honest member of that family so the claim can be
graded under the same fault-aware conformance oracle as ndm/pdm/timeout.
The mechanism is two-layered:

* **launch cadence** (this module): every blocked header arms a launch
  deadline ``blocked_since + threshold``; each time the deadline passes
  with the header still blocked in the same episode, the detector starts
  (or refreshes) an edge-chasing probe session and re-arms one threshold
  later.  The threshold is the probe family's ``t2``-analog.
* **probe transport** (:mod:`repro.network.probes`): sessions advance one
  hop per cycle in the simulator's dedicated probe phase; a probe
  returning to its initiator proves a wait-graph cycle and elects the
  youngest message on its path as recovery victim.

Everything is deterministic and engine-agnostic: the launch heap is fed
by *first* blocked attempts only (which both engines execute identically)
and drained by cycle number in the probe phase; no hook ever touches the
simulator RNG, so scan/event behavioural digests stay bit-identical.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.detector import DeadlockDetector
from repro.network.message import Message
from repro.network.probes import ProbeTransport
from repro.network.types import MessageStatus

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.config import DetectorConfig
    from repro.network.simulator import Simulator


class ProbeDetection(DeadlockDetector):
    """Edge-chasing probe detector with a tunable launch threshold."""

    name = "probe"
    has_probe_phase = True

    def __init__(
        self,
        threshold: int,
        max_hops: int = 64,
        max_outstanding: int = 64,
    ) -> None:
        super().__init__(threshold)
        self.transport = ProbeTransport(max_hops, max_outstanding)
        #: (launch_cycle, seq, message, episode) min-heap.  Entries are
        #: validated lazily at pop time: the message must still be in the
        #: network, blocked, unmarked, and in the same blocking episode
        #: (``blocked_since`` unchanged) for the launch to happen.
        self._launch_heap: List[Tuple[int, int, Message, int]] = []
        self._launch_seq = 0

    @classmethod
    def from_config(cls, config: "DetectorConfig") -> "ProbeDetection":
        """Forward the config's storm-guard caps."""
        return cls(
            config.threshold,
            max_hops=config.probe_max_hops,
            max_outstanding=config.probe_max_outstanding,
        )

    # ------------------------------------------------------------------
    # Router-side hooks
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        """Arm the launch deadline on the episode's first failed attempt.

        Never detects inline — detection happens exclusively in the probe
        phase — and has no side effects on subsequent attempts, so blocked
        headers may sleep under the event engine (``can_sleep_blocked``).
        """
        if first_attempt:
            self._arm(message, cycle + self.threshold)
        return False

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Next launch-cadence point strictly after ``cycle``.

        Pure arithmetic on the episode start, so the event engine's wakeup
        heap tracks exactly the cycles at which the probe phase may act on
        this message; detection itself still happens out-of-band, making
        the wakeup a no-op routing re-attempt that keeps both engines'
        attempt streams aligned with the cadence.
        """
        since = message.blocked_since
        if since is None:
            return cycle + self.threshold
        period = self.threshold
        return since + period * ((cycle - since) // period + 1)

    # ------------------------------------------------------------------
    # Probe phase
    # ------------------------------------------------------------------
    def probe_phase(self, sim: "Simulator", cycle: int) -> List[Message]:
        """One out-of-band hop for every in-flight probe, plus launches."""
        transport = self.transport
        messages = sim.messages
        victims = transport.advance(messages)
        heap = self._launch_heap
        in_network = MessageStatus.IN_NETWORK
        while heap and heap[0][0] <= cycle:
            _, _, message, episode = heapq.heappop(heap)
            if (
                message.status is not in_network
                or transport._marked(message)
                or message.blocked_since != episode
                or not message.is_blocked()
            ):
                continue  # episode over: the cadence entry is stale
            self._arm(message, cycle + self.threshold)
            if transport.has_session(message.id):
                continue  # session already chasing; keep the cadence alive
            deadend = transport.start_session(message, messages)
            if deadend is not None:
                victims.append(deadend)
        self._flush_counters(sim)
        return victims

    def _arm(self, message: Message, launch_cycle: int) -> None:
        blocked_since = message.blocked_since
        episode = blocked_since if blocked_since is not None else -1
        self._launch_seq += 1
        heapq.heappush(
            self._launch_heap, (launch_cycle, self._launch_seq, message, episode)
        )

    def _flush_counters(self, sim: "Simulator") -> None:
        """Mirror transport counters into the run's behavioural stats."""
        vars(sim.stats).update(self.transport.counters())

    def describe(self) -> str:
        return (
            f"{self.name}(threshold={self.threshold}, "
            f"max_hops={self.transport.max_hops}, "
            f"max_outstanding={self.transport.max_outstanding})"
        )
