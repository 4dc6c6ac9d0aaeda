"""Tests for the recovery schemes."""

import pytest

from repro.core.recovery import make_recovery
from repro.figures.scenarios import build_figure3
from repro.network.types import MessageStatus


class TestProgressiveRecovery:
    def test_deadlock_resolved_and_all_delivered(self):
        scenario = build_figure3("ndm", threshold=8, recovery="progressive")
        ok = scenario.run_until(
            lambda s: all(
                m.status is MessageStatus.DELIVERED
                for m in s.messages.values()
            ),
            limit=3000,
        )
        assert ok

    def test_channels_freed_immediately(self):
        scenario = build_figure3("ndm", threshold=8, recovery="progressive")
        b = scenario.messages["B"]
        held = list(b.spans)
        scenario.run_until(lambda s: b.status is MessageStatus.RECOVERING,
                           limit=1000)
        for vc in held:
            assert vc.occupant != b.id

    def test_recovery_latency_includes_lane_transit(self):
        scenario = build_figure3("ndm", threshold=8, recovery="progressive")
        b = scenario.messages["B"]
        scenario.run_until(lambda s: b.status is MessageStatus.RECOVERING,
                           limit=1000)
        marked_cycle = scenario.sim.cycle
        scenario.run_until(lambda s: b.status is MessageStatus.DELIVERED,
                           limit=1000)
        assert b.deliver_cycle - marked_cycle >= b.length

    def test_stats_count_recoveries(self):
        scenario = build_figure3("ndm", threshold=8, recovery="progressive")
        scenario.run(600)
        assert scenario.sim.stats.recoveries == 1
        assert scenario.sim.stats.aborts == 0


class TestProgressiveReinjection:
    def test_message_reinjected_from_header_node(self):
        scenario = build_figure3(
            "ndm", threshold=8, recovery="progressive-reinject"
        )
        b = scenario.messages["B"]
        scenario.run_until(lambda s: b.recoveries > 0, limit=1000)
        # Re-injected from the node that held its header, not the source.
        assert b.inject_node == b.spans[-1].pc.dst_node if b.spans else True
        ok = scenario.run_until(
            lambda s: b.status is MessageStatus.DELIVERED, limit=3000
        )
        assert ok

    def test_deadlock_broken_for_everyone(self):
        scenario = build_figure3(
            "ndm", threshold=8, recovery="progressive-reinject"
        )
        ok = scenario.run_until(
            lambda s: all(
                m.status is MessageStatus.DELIVERED
                for m in s.messages.values()
            ),
            limit=3000,
        )
        assert ok


class TestRegressiveRecovery:
    def test_abort_and_retry_from_source(self):
        scenario = build_figure3("ndm", threshold=8, recovery="regressive")
        b = scenario.messages["B"]
        scenario.run_until(lambda s: b.retries > 0, limit=1000)
        assert b.inject_node == b.source
        ok = scenario.run_until(
            lambda s: all(
                m.status is MessageStatus.DELIVERED
                for m in s.messages.values()
            ),
            limit=3000,
        )
        assert ok

    def test_stats_count_aborts(self):
        scenario = build_figure3("ndm", threshold=8, recovery="regressive")
        scenario.run(600)
        assert scenario.sim.stats.aborts >= 1
        assert scenario.sim.stats.recoveries == 0


class TestNoRecovery:
    def test_marked_message_stays_blocked(self):
        scenario = build_figure3("ndm", threshold=8, recovery="none")
        b = scenario.messages["B"]
        scenario.run_until(lambda s: b.marked_deadlocked, limit=1000)
        scenario.run(100)
        assert b.status is MessageStatus.IN_NETWORK
        assert b.is_blocked()

    def test_marked_message_not_redetected(self):
        scenario = build_figure3("ndm", threshold=8, recovery="none")
        b = scenario.messages["B"]
        scenario.run_until(lambda s: b.marked_deadlocked, limit=1000)
        scenario.run(200)
        events = [
            e for e in scenario.sim.stats.detection_events
            if e.message_id == b.id
        ]
        assert len(events) == 1


class TestFactory:
    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown recovery scheme"):
            make_recovery("wormhole-magic")

    @pytest.mark.parametrize(
        "name", ["progressive", "progressive-reinject", "regressive", "none"]
    )
    def test_known_schemes_constructible(self, name):
        assert make_recovery(name).name == name
