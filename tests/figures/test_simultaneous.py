"""The paper's simultaneous-blocking corner case (Section 3).

When two members of a deadlock both blocked on still-advancing roots, both
carry G and both detect: recovery overhead doubles, which the paper argues
is acceptable because the case is infrequent in congested networks.
With recovery on, the second of the two marks is redundant: the first
mark's recovery has already dissolved the deadlock when the second is made.
"""

import pytest

from repro.analysis.deadlock import find_deadlocked
from repro.figures.scenarios import build_simultaneous_blocking
from repro.network.types import MessageStatus


class TestSimultaneousBlocking:
    def test_cycle_members(self):
        scenario = build_simultaneous_blocking("none")
        scenario.run(40)
        deadlocked = find_deadlocked(scenario.sim.active_messages)
        names = sorted(scenario.name_of(m.id) for m in deadlocked)
        assert names == ["B", "D", "E", "F"]

    def test_both_g_holders_detect(self):
        scenario = build_simultaneous_blocking("ndm", threshold=16)
        scenario.run(400)
        detected = set(scenario.detected_names())
        assert detected == {"B", "D"}

    def test_newcomers_stay_quiet(self):
        scenario = build_simultaneous_blocking("ndm", threshold=16)
        scenario.run(400)
        detected = set(scenario.detected_names())
        assert "E" not in detected
        assert "F" not in detected

    def test_detections_classified_true(self):
        scenario = build_simultaneous_blocking("ndm", threshold=16)
        scenario.run(400)
        stats = scenario.sim.stats
        assert stats.true_detections == 2
        assert stats.false_detections == 0

    @pytest.mark.parametrize("threshold", [8, 16, 32])
    @pytest.mark.parametrize(
        "recovery", ["progressive", "progressive-reinject", "regressive"]
    )
    def test_second_mark_graded_after_first_recovery(self, recovery, threshold):
        """B and D are marked in one cycle, B first.  B's recovery
        dissolves {B, D, E, F} before D is marked, so the oracle, asked
        about the network at D's mark, grades it false."""
        scenario = build_simultaneous_blocking(
            "ndm", threshold, recovery=recovery
        )
        scenario.run(400)
        events = scenario.sim.stats.detection_events
        graded = [
            (scenario.name_of(e.message_id), e.truly_deadlocked) for e in events
        ]
        assert graded == [("B", True), ("D", False)]
        assert events[0].cycle == events[1].cycle

    def test_recovery_invoked_twice_but_resolves(self):
        scenario = build_simultaneous_blocking(
            "ndm", threshold=16, recovery="progressive"
        )
        ok = scenario.run_until(
            lambda s: all(
                m.status is MessageStatus.DELIVERED
                for m in s.messages.values()
            ),
            limit=3000,
        )
        assert ok
        # Both G-holders were marked: double recovery for one deadlock
        # (the overhead case the paper calls infrequent).
        assert scenario.sim.stats.recoveries == 2

    def test_pdm_marks_all_four(self):
        scenario = build_simultaneous_blocking("pdm", threshold=16)
        scenario.run(400)
        assert set(scenario.detected_names()) == {"B", "D", "E", "F"}

    @pytest.mark.parametrize("selective", [False, True])
    def test_promotion_variant_irrelevant_here(self, selective):
        scenario = build_simultaneous_blocking(
            "ndm", threshold=16, selective_promotion=selective
        )
        scenario.run(400)
        assert set(scenario.detected_names()) == {"B", "D"}
