"""One scripted simulator instance driven cycle-by-cycle by the checker.

:class:`Instance` owns a real :class:`~repro.network.simulator.Simulator`
built from a :class:`~repro.verify.scenario.VerifyCase` — same kernel,
same phases, same detectors as production runs — with two verification
seams installed:

* the simulator RNG is replaced by :class:`ScriptedRNG`, so arbitration
  draws come from the cycle's choice vector;
* scripted messages are enqueued according to injection-window choices
  consumed from the same vector, before the cycle's phases run.

Successor expansion works by **replay**: the checker never snapshots or
copies a simulator.  Each state stores its choice trace and a fresh
instance replays it from cycle zero — which doubles as the
counterexample replay path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.analysis.deadlock import find_deadlocked
from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.probe import ProbeDetection
from repro.core.registry import detector_class
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus
from repro.verify.choices import ChoiceLog, ScriptedRNG
from repro.verify.recording import RecordingNDM, check_gp_writes
from repro.verify.scenario import VerifyCase

#: One cycle's choice vector; a trace is one vector per simulated cycle.
ChoiceVector = Tuple[int, ...]
Trace = Tuple[ChoiceVector, ...]


class StormViolation(AssertionError):
    """The probe transport exceeded its configured outstanding bound."""


class WaiterViolation(AssertionError):
    """Selective-promotion waiter maps diverged from registered headers."""


class Instance:
    """A scripted run of one verification case on one engine."""

    def __init__(self, case: VerifyCase, engine: str = "event") -> None:
        self.case = case
        self.engine = engine
        self.config = case.build_config(engine=engine)
        cls = detector_class(case.mechanism)
        if case.mechanism == "ndm":
            cls = RecordingNDM
        self.detector: DeadlockDetector = cls.from_config(self.config.detector)
        self.sim = Simulator(self.config, detector=self.detector)
        self._rng = ScriptedRNG()
        self.sim.rng = self._rng
        specs = case.scenario.messages
        self.messages: List[Message] = [
            Message(i, s.source, s.dest, s.length, 0)
            for i, s in enumerate(specs)
        ]
        self.sim._next_message_id = len(specs)
        #: Spec indices not yet enqueued at their source.
        self.pending: List[int] = list(range(len(specs)))

    # ------------------------------------------------------------------
    # Cycle driving
    # ------------------------------------------------------------------
    def step_cycle(self, script: Sequence[int] = ()) -> ChoiceLog:
        """Simulate one cycle under the scripted choice vector.

        Choice consumption order (fixed, so domains are a function of
        the state plus earlier choices): one binary inject-now/defer
        draw per open injection window in spec order, then every
        arbitration draw the phases perform, in phase order.
        """
        log = ChoiceLog(script)
        self._rng.log = log
        sim = self.sim
        cycle = sim.cycle
        recorder = (
            self.detector if isinstance(self.detector, RecordingNDM) else None
        )
        gp_pre: Tuple[bool, ...] = ()
        if recorder is not None:
            recorder.events.clear()
            gp_pre = self.gp_vector()
        for index in list(self.pending):
            spec = self.case.scenario.messages[index]
            if spec.earliest > cycle:
                continue
            forced = spec.latest is not None and cycle >= spec.latest
            if forced or log.draw(2) == 1:
                self.pending.remove(index)
                sim.enqueue_source(self.messages[index], spec.source)
        sim.step()
        if recorder is not None:
            check_gp_writes(gp_pre, self.gp_vector(), recorder.events, cycle)
        self._rng.log = None
        return log

    def run_trace(self, trace: Sequence[Sequence[int]]) -> None:
        """Replay a whole choice trace from the instance's current cycle."""
        for vector in trace:
            self.step_cycle(vector)

    # ------------------------------------------------------------------
    # Per-state oracles and structural checks
    # ------------------------------------------------------------------
    def gp_vector(self) -> Tuple[bool, ...]:
        """Per-channel G/P flags (True = GENERATE), by channel index;
        all P for a detector that keeps none."""
        detector = self.detector
        if isinstance(detector, NewDetectionMechanism):
            return tuple(map(bool, detector.gp))
        return (False,) * len(self.sim.channels)

    def oracle_deadlocked(self) -> FrozenSet[int]:
        """Message ids in the fault-aware OR-wait knot right now."""
        knot = find_deadlocked(self.sim.active_messages)
        return frozenset(m.id for m in knot)

    def undetected_deadlocked(self) -> FrozenSet[int]:
        """Oracle-deadlocked message ids no mechanism has marked yet."""
        knot = find_deadlocked(self.sim.active_messages)
        return frozenset(m.id for m in knot if not m.marked_deadlocked)

    def check_structure(self) -> None:
        """Structural invariants for the current state; raises on failure."""
        self.sim.check_invariants()
        self._check_probe_storm()
        self._check_selective_waiters()

    def _check_probe_storm(self) -> None:
        detector = self.detector
        if not isinstance(detector, ProbeDetection):
            return
        transport = detector.transport
        bound = transport.max_outstanding + 1
        for initiator_id, session in transport.sessions.items():
            if len(session.probes) > bound:
                raise StormViolation(
                    f"session {initiator_id}: {len(session.probes)} probes "
                    f"in flight exceeds max_outstanding+1 = {bound}"
                )

    def _check_selective_waiters(self) -> None:
        """Waiter refcounts must equal the registered blocked headers."""
        if not (self.case.mechanism == "ndm" and self.case.selective_promotion):
            return
        expected: Dict[Tuple[int, int], int] = {}
        for m in self.sim.active_messages:
            if m.status is not MessageStatus.IN_NETWORK:
                continue
            if not m.first_attempt_done:
                continue
            input_pc = m.input_pc
            if input_pc is None:
                continue
            for pc in m.feasible_pcs:
                key = (pc.index, input_pc.index)
                expected[key] = expected.get(key, 0) + 1
        actual: Dict[Tuple[int, int], int] = {}
        targets = self.detector.reset_targets  # type: ignore[attr-defined]
        for index, waiters in enumerate(targets):
            for i, count in dict(waiters).items():
                actual[(index, i)] = count
        if expected != actual:
            raise WaiterViolation(
                f"selective waiter maps diverged: expected {sorted(expected.items())}, "
                f"actual {sorted(actual.items())}"
            )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def all_delivered(self) -> bool:
        return (
            not self.pending
            and not self.sim.active_messages
            and not self.sim._recovery_deliveries
            and not self.sim.recovery_queues
            and not any(self.sim.source_queues)
        )


def replay(case: VerifyCase, trace: Sequence[Sequence[int]],
           engine: str = "event") -> Instance:
    """Fresh instance with ``trace`` replayed; raises on any violation."""
    inst = Instance(case, engine=engine)
    inst.run_trace(trace)
    return inst
