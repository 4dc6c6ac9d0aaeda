"""Edge-chasing probe detector: protocol unit tests.

Exercises the probe family on the paper's hand-built figure scenarios —
figure 2 is a dependency chain behind an advancing message (no deadlock,
so a precise detector must stay silent), figure 3 closes a true cycle —
plus cadence/storm-guard mechanics on the transport directly.
"""

import pytest

from repro.analysis.deadlock import find_deadlocked
from repro.core.probe import ProbeDetection
from repro.core.registry import make_detector
from repro.figures.scenarios import build_figure2, build_figure3
from repro.network.config import DetectorConfig
from repro.network.message import Message


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class TestConstruction:
    def test_registry_builds_probe_with_knobs(self):
        detector = make_detector(
            DetectorConfig(
                mechanism="probe",
                threshold=16,
                probe_max_hops=9,
                probe_max_outstanding=3,
            )
        )
        assert isinstance(detector, ProbeDetection)
        assert detector.has_probe_phase is True
        assert detector.can_sleep_blocked is True
        assert detector.transport.max_hops == 9
        assert detector.transport.max_outstanding == 3

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ProbeDetection(threshold=16, max_hops=0)
        with pytest.raises(ValueError):
            ProbeDetection(threshold=16, max_outstanding=0)

    def test_blocked_deadline_is_next_cadence_point(self):
        detector = ProbeDetection(threshold=10)
        m = Message(0, 0, 1, 4, gen_cycle=0)
        m.blocked_since = 100
        assert detector.blocked_deadline(m, 100) == 110
        assert detector.blocked_deadline(m, 109) == 110
        assert detector.blocked_deadline(m, 110) == 120
        assert detector.blocked_deadline(m, 125) == 130
        # Always strictly in the future (a <= cycle deadline would keep
        # the event engine's parked header awake every cycle).
        for cycle in range(100, 150):
            assert detector.blocked_deadline(m, cycle) > cycle


# ----------------------------------------------------------------------
# Figure scenarios
# ----------------------------------------------------------------------
class TestFigureScenarios:
    def test_figure3_true_deadlock_detected_and_classified_true(self):
        scenario = build_figure3(mechanism="probe", threshold=8)
        sim = scenario.sim
        for _ in range(120):
            sim.step()
            if sim.stats.detections:
                break
        stats = sim.stats
        assert stats.detections >= 1
        assert stats.probe_cycle_detections >= 1
        assert stats.probe_deadend_detections == 0
        assert stats.true_detections >= 1
        assert stats.false_detections == 0
        # The elected victim is a member of the real deadlock cycle.
        victim = stats.detection_events[0].message_id
        assert scenario.name_of(victim) in {"B", "C", "D", "E"}

    def test_figure3_victim_is_youngest_on_cycle(self):
        scenario = build_figure3(mechanism="probe", threshold=8)
        sim = scenario.sim
        for _ in range(120):
            sim.step()
            if sim.stats.detections:
                break
        cycle_ids = {m.id for m in find_deadlocked(sim.active_messages)}
        victim = sim.stats.detection_events[0].message_id
        assert victim == max(cycle_ids | {victim})

    def test_figure2_dependency_chain_stays_silent(self):
        # B, C, D wait behind the advancing A: no deadlock ever forms, so
        # the edge-chasing protocol must not raise a single detection
        # while the crude timeout (same threshold) would fire on all
        # three.  This is the family's precision advantage in one test.
        scenario = build_figure2(mechanism="probe", threshold=8)
        sim = scenario.sim
        for _ in range(150):
            sim.step()
        assert sim.stats.detections == 0
        assert sim.stats.probe_launches > 0  # blocked long enough to probe
        assert sim.stats.probe_dropped_progress > 0  # probes died on escape

    def test_figure2_timeout_fires_where_probe_does_not(self):
        scenario = build_figure2(mechanism="timeout", threshold=8)
        sim = scenario.sim
        for _ in range(150):
            sim.step()
        assert sim.stats.detections > 0  # the contrast baseline

    def test_scan_and_event_agree_on_figure3(self):
        payloads = []
        for park in (False, True):
            scenario = build_figure3(mechanism="probe", threshold=8)
            sim = scenario.sim
            # All event-engine parking hangs off this one gate; forcing
            # it off before the first step yields exact scan semantics
            # (the scenario builder fixes the engine pre-construction).
            sim._park_enabled = park
            for _ in range(120):
                sim.step()
            payloads.append(
                sim.stats.to_dict(include_events=False, include_perf=False)
            )
        assert payloads[0] == payloads[1]


# ----------------------------------------------------------------------
# Storm guards
# ----------------------------------------------------------------------
class TestStormGuards:
    def test_outstanding_probes_bounded_with_tiny_cap(self):
        scenario = build_figure3(mechanism="probe", threshold=8)
        sim = scenario.sim
        sim.detector.transport.max_outstanding = 1
        for _ in range(120):
            sim.step()
            assert (
                sim.stats.probe_peak_outstanding
                <= sim.detector.transport.max_outstanding + 1
            )
            if sim.stats.detections:
                break
        # A single-lane cycle needs only one probe in flight: detection
        # still happens under the tightest possible storm guard.
        assert sim.stats.probe_cycle_detections >= 1

    def test_max_hops_one_prevents_cycle_detection(self):
        # The figure-3 cycle is 4 messages long; a 1-hop cap kills every
        # probe before it can return, so the detector stays silent (and
        # counts the drops).
        scenario = build_figure3(mechanism="probe", threshold=8)
        sim = scenario.sim
        sim.detector.transport.max_hops = 1
        for _ in range(120):
            sim.step()
        assert sim.stats.probe_cycle_detections == 0
        assert sim.stats.probe_dropped_hops > 0

    def test_relaunch_cadence_reprobes_while_blocked(self):
        scenario = build_figure2(mechanism="probe", threshold=8)
        sim = scenario.sim
        for _ in range(150):
            sim.step()
        # Blocked-but-not-deadlocked messages re-launch every threshold
        # cycles for as long as the episode lasts.
        assert sim.stats.probe_launches >= 3
