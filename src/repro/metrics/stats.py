"""Simulation statistics.

Counters come in two flavours: lifetime totals and ``*_measured`` values
restricted to the measurement window (after warmup, before drain).  The
paper's headline metric — *percentage of messages detected as possibly
deadlocked* — is ``detections_measured / injected_measured * 100``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.network.types import DetectionEvent


@dataclass
class DetectionTally:
    """What one detector cell counts: a solo run's stats, or one rank of a
    batch fold (``repro.network.batch``)."""

    #: Detection events (a message can be re-detected after recovery).
    detections: int = 0
    detections_measured: int = 0
    #: Distinct messages detected at least once (the tables' numerator).
    messages_detected: int = 0
    messages_detected_measured: int = 0
    #: Detections confirmed by the ground-truth analyzer as true deadlock.
    true_detections: int = 0
    #: Detections the analyzer classified as false deadlock.
    false_detections: int = 0
    #: Detections raised while the analyzer was disabled.
    unclassified_detections: int = 0
    detection_events: List[DetectionEvent] = field(default_factory=list)

    def record_detection(
        self, event: DetectionEvent, measuring: bool, first: bool
    ) -> None:
        """Count one detection; ``first`` iff its message was never
        detected before, ``measuring`` iff inside the measurement window."""
        self.detection_events.append(event)
        self.detections += 1
        self.detections_measured += measuring
        self.messages_detected += first
        self.messages_detected_measured += first and measuring
        if event.truly_deadlocked is None:
            self.unclassified_detections += 1
        elif event.truly_deadlocked:
            self.true_detections += 1
        else:
            self.false_detections += 1


@dataclass
class SimulationStats(DetectionTally):
    """All counters recorded by one simulation run."""

    # --- run shape -----------------------------------------------------
    cycles_run: int = 0
    warmup_cycles: int = 0
    measure_cycles: int = 0
    num_nodes: int = 0

    # --- message lifecycle ----------------------------------------------
    generated: int = 0
    generated_measured: int = 0
    injected: int = 0
    injected_measured: int = 0
    delivered: int = 0
    delivered_measured: int = 0
    flits_delivered: int = 0
    flits_delivered_measured: int = 0
    source_queue_drops: int = 0

    # --- deadlock handling (detections: see DetectionTally) ---------------
    recoveries: int = 0
    recoveries_measured: int = 0
    aborts: int = 0
    aborts_measured: int = 0

    # --- ground-truth sweeps ------------------------------------------------
    truth_sweeps: int = 0
    truth_sweeps_with_deadlock: int = 0
    max_deadlock_set_size: int = 0
    #: Distinct messages ever observed inside a true deadlock.
    truly_deadlocked_messages: int = 0

    # --- latency ----------------------------------------------------------
    latency_sum: int = 0  # generation -> delivery, measured deliveries only
    network_latency_sum: int = 0  # injection -> delivery
    latency_count: int = 0
    max_latency: int = 0

    # --- fault injection / conformance --------------------------------------
    #: Fault-schedule edges applied (link windows, stuck lanes, counter
    #: faults; see repro.faults).  Zero on healthy runs.
    fault_edges: int = 0
    #: Conformance accounting against the per-cycle ground-truth oracle
    #: (filled by repro.faults.conformance; zero outside the harness).
    #: Detection events raised while the message was truly deadlocked.
    oracle_true_positive_events: int = 0
    #: Detection events raised while the message was *not* deadlocked.
    oracle_false_positive_events: int = 0
    #: Messages still truly deadlocked at the end of the run that no
    #: detector ever marked (the harness's false-negative count).
    oracle_missed_messages: int = 0
    #: Detection latency (cycles from entering the oracle's deadlocked
    #: set to the detection event), summed / counted / maxed over true
    #: positives.
    oracle_latency_sum: int = 0
    oracle_latency_count: int = 0
    oracle_latency_max: int = 0

    # --- probe transport (probe-family detectors; zero otherwise) ----------
    # Behavioural, not telemetry: the probe transport is deterministic and
    # engine-agnostic, so these participate in engine-equivalence digests.
    #: Probe sessions launched (including dead-end self-detections).
    probe_launches: int = 0
    #: Total probe hops taken across all sessions.
    probe_hops: int = 0
    #: Detections from a probe returning to its initiator (wait cycle).
    probe_cycle_detections: int = 0
    #: Detections from a launch finding no usable lane at all (fault-wedged).
    probe_deadend_detections: int = 0
    #: Probes dropped because their current message could still advance.
    probe_dropped_progress: int = 0
    #: Probes dropped by the per-initiator visited-set dedupe (self-waits
    #: and second returning probes included).
    probe_dropped_dedupe: int = 0
    #: Probes dropped by lowest-id root election.
    probe_dropped_election: int = 0
    #: Probes dropped at the max_hops path-length cap.
    probe_dropped_hops: int = 0
    #: Probes dropped at the max_outstanding storm guard.
    probe_dropped_overflow: int = 0
    #: Peak probes simultaneously in flight for any single initiator.
    probe_peak_outstanding: int = 0

    # --- engine telemetry ---------------------------------------------------
    # Wall-clock and work counters of the simulation engine itself.  These
    # describe *how* the run was computed, not what it simulated: they
    # legitimately differ between the event-driven and reference engines
    # (and across hosts), so equivalence checks compare
    # ``to_dict(include_perf=False)``.
    #: Engine that produced the run (its ``config.engine`` value;
    #: ``"batch"`` for a cell folded off a shared trajectory).
    engine: str = ""
    #: Wall-clock seconds per simulation phase (routing, movement, ...).
    phase_time: Dict[str, float] = field(default_factory=dict)
    #: Engine work counters: routing attempts vs parked skips, movement
    #: visits vs parked skips, parks and deadline wakeups.
    engine_counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: Field names describing engine execution rather than simulated
    #: behaviour (see the "engine telemetry" section above).
    PERF_FIELDS = ("engine", "phase_time", "engine_counters")

    def to_dict(
        self, include_events: bool = True, include_perf: bool = True
    ) -> Dict[str, Any]:
        """JSON-serializable form of every counter.

        Set ``include_events=False`` to drop the (potentially large)
        per-detection event log; every derived metric works on the
        reloaded stats.
        ``include_perf=False`` additionally drops the engine telemetry,
        leaving exactly the simulated behaviour — the form compared by
        the engine-equivalence tests.
        """
        payload = dataclasses.asdict(self)
        if not include_events:
            del payload["detection_events"]
        if not include_perf:
            for name in self.PERF_FIELDS:
                del payload[name]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationStats":
        """Inverse of :meth:`to_dict` (missing event log -> empty)."""
        data = dict(payload)
        events = [
            DetectionEvent(**e) for e in data.pop("detection_events", [])
        ]
        return cls(detection_events=events, **data)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def detection_percentage(self) -> float:
        """The paper's metric: % of injected messages marked as deadlocked.

        Counts distinct messages (first detections), matching "percentage
        of messages detected as possibly deadlocked" in the table captions.
        """
        if self.injected_measured == 0:
            return 0.0
        return 100.0 * self.messages_detected_measured / self.injected_measured

    def oracle_mean_latency(self) -> Optional[float]:
        """Mean true-positive detection latency (conformance runs only)."""
        if self.oracle_latency_count == 0:
            return None
        return self.oracle_latency_sum / self.oracle_latency_count

    def fault_conformance(self) -> Dict[str, Any]:
        """The conformance harness's per-run verdict as a plain dict."""
        return {
            "fault_edges": self.fault_edges,
            "true_positives": self.oracle_true_positive_events,
            "false_positives": self.oracle_false_positive_events,
            "missed": self.oracle_missed_messages,
            "latency_mean": self.oracle_mean_latency(),
            "latency_max": self.oracle_latency_max,
            "latency_sum": self.oracle_latency_sum,
            "latency_count": self.oracle_latency_count,
        }

    def had_true_deadlock(self) -> bool:
        """Whether any real deadlock occurred (the tables' ``(*)`` marks)."""
        return self.true_detections > 0 or self.truth_sweeps_with_deadlock > 0

    def throughput(self) -> float:
        """Accepted traffic in flits/cycle/node over the measured window."""
        if self.measure_cycles == 0 or self.num_nodes == 0:
            return 0.0
        return self.flits_delivered_measured / (
            self.measure_cycles * self.num_nodes
        )

    def average_latency(self) -> Optional[float]:
        """Mean generation-to-delivery latency of measured deliveries."""
        if self.latency_count == 0:
            return None
        return self.latency_sum / self.latency_count

    def average_network_latency(self) -> Optional[float]:
        """Mean injection-to-delivery latency of measured deliveries."""
        if self.latency_count == 0:
            return None
        return self.network_latency_sum / self.latency_count

    def summary(self) -> str:
        """Multi-line human-readable digest (used by examples)."""
        lat = self.average_latency()
        lines = [
            f"cycles run            : {self.cycles_run} "
            f"(warmup {self.warmup_cycles}, measured {self.measure_cycles})",
            f"messages injected     : {self.injected_measured} (measured) / "
            f"{self.injected} (total)",
            f"messages delivered    : {self.delivered_measured} (measured) / "
            f"{self.delivered} (total)",
            f"throughput            : {self.throughput():.4f} flits/cycle/node",
            f"avg latency           : "
            + (f"{lat:.1f} cycles" if lat is not None else "n/a"),
            f"deadlock detections   : {self.messages_detected_measured} msgs / "
            f"{self.detections_measured} events "
            f"({self.detection_percentage():.3f}% of injected)",
            f"  true / false / n.c. : {self.true_detections} / "
            f"{self.false_detections} / {self.unclassified_detections}",
            f"recoveries / aborts   : {self.recoveries} / {self.aborts}",
            f"true-deadlock sweeps  : {self.truth_sweeps_with_deadlock} / "
            f"{self.truth_sweeps}",
        ]
        return "\n".join(lines)


#: The probe-transport counters, by field name (``probe_<counter>`` mirrors
#: ``ProbeTransport.<counter>``; see ``ProbeTransport.counters``).
PROBE_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimulationStats) if f.name.startswith("probe_")
)
