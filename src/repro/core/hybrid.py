"""Hybrid detection: NDM with a crude-timeout safety net.

A practical concern the paper leaves open: the NDM suppresses detection
for tree-interior messages (`G/P = P`), relying on *some other* message
detecting the deadlock.  If that message's router mis-classifies (e.g. the
paper's simultaneous-blocking corner cases, or a dropped G due to the
shared per-channel flag), detection latency is unbounded.  The hybrid
mechanism keeps the NDM as the primary detector and adds a per-message
header-blocked timeout at ``fallback_factor x t2`` as a liveness backstop:

* ordinary detections behave exactly like the NDM (same selectivity);
* any message continuously blocked for the (much larger) fallback window
  is marked regardless of its G/P state, bounding worst-case detection
  latency without materially increasing false detections (the fallback
  window is far beyond normal congestion stalls).

This is an *extension* beyond the paper (its Section 5 notes the detection
mechanism "detects all the deadlocks" through the G-holder; the hybrid
makes that guarantee robust to heuristic corner cases).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ndm import NewDetectionMechanism
from repro.core.timeout import HeaderBlockedTimeout
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator


class HybridDetection(NewDetectionMechanism):
    """NDM plus a long header-blocked timeout as a liveness backstop."""

    name = "hybrid"

    # Not folded onto shared trajectories (despite inheriting the ndm
    # observer machinery): a hybrid cell is two rules at two thresholds
    # (ndm's at t2, the backstop at ``fallback_factor x t2``), and a fold
    # rung is one score under one threshold.
    batch_shareable = False

    def __init__(
        self,
        threshold: int,
        t1: int = 1,
        selective_promotion: bool = False,
        fallback_factor: int = 16,
    ) -> None:
        super().__init__(threshold, t1=t1, selective_promotion=selective_promotion)
        if fallback_factor < 2:
            raise ValueError(
                f"fallback_factor must be >= 2, got {fallback_factor}"
            )
        self.fallback_factor = fallback_factor
        self.fallback_threshold = threshold * fallback_factor
        #: Detections raised by the backstop rather than the NDM rule.
        self.fallback_detections = 0

    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        if super().on_blocked_attempt(sim, message, cycle, first_attempt):
            return True
        if first_attempt:
            return False
        if HeaderBlockedTimeout.score(message, cycle) > self.fallback_threshold:
            self.fallback_detections += 1
            return True
        return False

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """NDM deadline capped by the (exact) fallback timeout."""
        ndm = super().blocked_deadline(message, cycle)
        fallback = HeaderBlockedTimeout.deadline(
            message, cycle, self.fallback_threshold
        )
        if ndm is None or (fallback is not None and fallback < ndm):
            return fallback
        return ndm

    def describe(self) -> str:
        return (
            f"hybrid(t2={self.threshold}, "
            f"fallback={self.fallback_threshold} cycles)"
        )
