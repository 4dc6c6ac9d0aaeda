"""Deadlock detector interface.

A detector is a passive observer wired into the router pipeline through a
small set of hooks.  All of them correspond to events a real router sees
locally, so every mechanism implemented on top of this interface is
*distributed* in the paper's sense: no global state, no extra signalling
between routers beyond the flow control that wormhole switching already has.

Hook call sites (see ``repro.network.simulator``):

* ``on_blocked_attempt`` — every cycle a blocked header is (re-)routed and
  finds no free virtual channel on any feasible output.  Returning ``True``
  marks the message as deadlocked and triggers recovery.
* ``on_message_routed`` — a header was granted an output virtual channel.
* ``on_vc_released`` — a virtual channel was freed (tail passed, delivery,
  or recovery).
* ``on_message_removed`` — a worm is being torn down by recovery.
* ``on_i_reset`` — a flit cleared an I flag on a channel the detector
  armed with ``i_threshold``.
* ``periodic_check`` — once per cycle; used by source-side timeout
  mechanisms that do not piggyback on header routing.

Hooks that act on the network take the simulator as their first argument:
a detector keeps no reference to it, so the network it observes holds no
reference cycle through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.network.channel import NEVER, PhysicalChannel, VirtualChannel
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.config import DetectorConfig
    from repro.network.simulator import Simulator


class DeadlockDetector:
    """Base class: a detector that never detects anything."""

    #: Short name used in configs, stats and reports.
    name = "abstract"

    #: Whether ``periodic_check`` does anything (lets the simulator skip
    #: the per-cycle call for header-side mechanisms).
    needs_periodic_check = False

    #: Whether blocked messages may be parked between routing attempts
    #: under the event-driven engine.  Requires ``on_blocked_attempt`` on
    #: subsequent attempts to be free of side effects and its outcome to
    #: be predictable via :meth:`blocked_deadline` plus the simulator's
    #: wakeup events.  Mechanisms with per-attempt state (e.g. the
    #: ndm-precise witness) must set this to False; their messages then
    #: re-attempt every cycle exactly as under the reference engine.
    can_sleep_blocked = True

    #: Whether :meth:`probe_phase` does anything.  Probe-family detectors
    #: set this to True and the simulator runs a dedicated out-of-band
    #: phase (between checks and routing) every cycle; for every other
    #: detector the phase is skipped entirely.
    has_probe_phase = False

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"detection threshold must be >= 1, got {threshold}")
        self.threshold = threshold

    @classmethod
    def from_config(cls, config: "DetectorConfig") -> "DeadlockDetector":
        """Build from a config section; ``ValueError`` on rejected settings."""
        return cls(config.threshold)

    def attach(self, sim: "Simulator") -> None:
        """Arm the detector's state on a built simulator (called once)."""

    @staticmethod
    def score(message: Message, cycle: int) -> int:
        """The mechanism fires on ``message`` at threshold ``t`` iff
        ``score > t`` (0 never fires).  The solo hooks compare it with the
        detector's one threshold; the batch fold counts ladder rungs under it."""
        return 0

    @staticmethod
    def deadline(message: Message, cycle: int, threshold: int) -> Optional[int]:
        """Earliest cycle ``score > threshold`` can first hold, assuming
        no further network events (``None``: not without one)."""
        return None

    # ------------------------------------------------------------------
    # Hooks (default: no-ops)
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        """A routing attempt failed; return True to mark ``message``.

        ``message.input_pc`` is the physical input channel holding the
        header and ``message.feasible_pcs`` the cached feasible outputs.
        """
        return False

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Earliest cycle a *future* ``on_blocked_attempt`` could mark
        ``message``, assuming no further network events.

        Contract for the event-driven engine (``engine="event"``): between
        ``cycle`` and the returned deadline the detector must not detect
        the message unless one of the simulator's wakeup events fires (a
        lane freeing or an inactivity counter resuming on a feasible
        channel, or a G/P promotion on the input channel).  ``None`` means
        detection is impossible without such an event.  The default reads
        :meth:`deadline` at the detector's own threshold; source-age and
        injection-stall, whose ``on_blocked_attempt`` never fires, return
        ``None`` instead (their ``deadline`` schedules the fold's checks).
        """
        return self.deadline(message, cycle, self.threshold)

    def probe_phase(self, sim: "Simulator", cycle: int) -> List[Message]:
        """Advance out-of-band probes one hop; return elected victims.

        Called once per cycle between the checks and routing phases, but
        only when :attr:`has_probe_phase` is True.  The returned messages
        are handed to the normal detection/recovery path (each guarded
        against having left the network or been marked in the meantime).
        Implementations must read only state that is bit-identical across
        the scan and event engines at this phase boundary — message
        blocking state and channel occupancy, never engine bookkeeping —
        and must not draw from the simulator's RNG.
        """
        return []

    def on_message_routed(self, message: Message, cycle: int) -> None:
        """``message``'s header was granted an output virtual channel."""

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        """A virtual channel was freed."""

    def on_message_removed(self, message: Message, cycle: int) -> None:
        """``message`` is being torn down by the recovery mechanism."""

    def on_i_reset(self, sim: "Simulator", pc: PhysicalChannel, cycle: int) -> None:
        """A flit crossed ``pc`` while its I flag was set (fires only on
        channels the detector armed with ``i_threshold``)."""

    def periodic_check(self, sim: "Simulator", cycle: int) -> List[Message]:
        """Messages to mark independent of header routing (source-side)."""
        return []

    def describe(self) -> str:
        return f"{self.name}(threshold={self.threshold})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class CounterDetector(DeadlockDetector):
    """The counter mechanisms' shared rule (pdm's IF, ndm's I and DT):
    every feasible output channel inactive for more than the threshold."""

    @staticmethod
    def score(message: Message, cycle: int) -> int:
        """Smallest inactivity counter over the feasible outputs (with
        none, the rule holds vacuously at every threshold)."""
        score = -NEVER
        for pc in message.feasible_pcs:
            value = pc.inactivity(cycle)
            if value < score:
                score = value
        return score

    @staticmethod
    def deadline(message: Message, cycle: int, threshold: int) -> Optional[int]:
        """The latest per-channel crossing, or ``None`` if some channel is
        frozen at or below the threshold (it resumes only on a wakeup)."""
        deadline = cycle + 1
        for pc in message.feasible_pcs:
            d = pc.inactivity_deadline(threshold)
            if d is None:
                return None
            if d > deadline:
                deadline = d
        return deadline
