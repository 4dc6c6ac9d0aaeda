"""PDM — the authors' previous detection mechanism (paper Section 2).

One counter and one inactivity flag (``IF``) per physical output channel
(paper Fig. 1).  The counter counts cycles since the last flit crossed the
channel; ``IF`` is set when it exceeds the threshold.  A blocked message is
presumed deadlocked when *every* feasible output channel has its ``IF`` set
— i.e. all alternatives have been inactive for a full timeout period.

Drawbacks the paper demonstrates (and our benchmarks reproduce):

* the useful threshold grows with message length — a blocked message's
  channels stay inactive for as long as the message ahead takes to drain;
* every message in a deadlocked cycle marks itself, so recovery is invoked
  once per member instead of once per cycle of blocked messages;
* trees of blocked-but-not-deadlocked messages (paper Fig. 2) are falsely
  detected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.detector import CounterDetector
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class PreviousDetectionMechanism(CounterDetector):
    """Martínez, López, Duato & Pinkston (ICPP 1997) channel-activity flags."""

    name = "pdm"

    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        # The mechanism is stateless across attempts: every time a blocked
        # message is re-routed it checks the IF flag of each alternative.
        return self.score(message, cycle) > self.threshold
