"""Unit tests for the crude timeout detection mechanisms."""

from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.figures.scenarios import Scenario, place_worm, scenario_config
from repro.network.simulator import Simulator


def fresh_scenario(mechanism, threshold=16) -> Scenario:
    return Scenario(Simulator(scenario_config(mechanism, threshold, "none")))


def park_blocker(sim):
    parked = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=60)
    parked.feasible_pcs = ()  # never routes
    return parked


class TestHeaderBlockedTimeout:
    def test_marks_after_blocked_threshold(self):
        scenario = fresh_scenario("timeout", threshold=12)
        sim = scenario.sim
        park_blocker(sim)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        ok = scenario.run_until(lambda s: b.marked_deadlocked, limit=60)
        assert ok
        event = sim.stats.detection_events[0]
        assert event.cycle - b.blocked_since == 13  # first cycle *over* 12
        # The rule itself, at its boundary (the run above wakes the parked
        # header at the deadline, so it cannot see an off-by-one score).
        attempt = sim.detector.on_blocked_attempt
        assert not attempt(sim, b, b.blocked_since + 12, False)
        assert attempt(sim, b, b.blocked_since + 13, False)

    def test_falsely_marks_even_behind_advancing_message(self):
        """The crude timeout cannot tell congestion from deadlock."""
        scenario = fresh_scenario("timeout", threshold=12)
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=200)  # advancing!
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(40)
        assert b.marked_deadlocked  # false detection by design

    def test_timer_resets_when_header_advances(self):
        scenario = fresh_scenario("timeout", threshold=40)
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=30)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (5, 0), length=16)
        scenario.run(300)
        # B waited ~28 cycles then advanced hop by hop: never 40 blocked.
        assert not b.marked_deadlocked


class TestSourceAgeTimeout:
    def test_marks_old_messages(self):
        scenario = fresh_scenario("source-age", threshold=30)
        sim = scenario.sim
        park_blocker(sim)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        ok = scenario.run_until(lambda s: b.marked_deadlocked, limit=80)
        assert ok
        event = next(e for e in sim.stats.detection_events if e.message_id == b.id)
        assert event.cycle - b.inject_cycle == 31  # first cycle *over* 30

    def test_fast_messages_unmarked(self):
        scenario = fresh_scenario("source-age", threshold=100)
        sim = scenario.sim
        m = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=16)
        scenario.run(80)
        assert m.status.value == "delivered"
        assert not m.marked_deadlocked

    def test_periodic_check_flag(self):
        assert SourceAgeTimeout.needs_periodic_check
        assert InjectionStallTimeout.needs_periodic_check
        assert not HeaderBlockedTimeout.needs_periodic_check


class TestInjectionStallTimeout:
    def test_marks_stalled_injection(self):
        scenario = fresh_scenario("injection-stall", threshold=20)
        sim = scenario.sim
        park_blocker(sim)
        scenario.run(2)
        # Long worm: buffers fill, source stalls with flits remaining.
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=48)
        assert b.flits_at_source > 0
        ok = scenario.run_until(lambda s: b.marked_deadlocked, limit=100)
        assert ok
        event = next(e for e in sim.stats.detection_events if e.message_id == b.id)
        assert event.cycle - b.last_source_flit_cycle == 21  # first *over* 20

    def test_ignores_fully_injected_messages(self):
        scenario = fresh_scenario("injection-stall", threshold=10)
        sim = scenario.sim
        park_blocker(sim)
        scenario.run(2)
        # Short worm fits entirely in network buffers: source empties, the
        # source-side observer loses sight of it.
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=6)
        scenario.run(100)
        assert b.flits_at_source == 0
        assert not b.marked_deadlocked
