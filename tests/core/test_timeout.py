"""Unit tests for the crude timeout detection mechanisms."""

import pytest

from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.figures.scenarios import Scenario, place_worm, scenario_config
from repro.network.config import SimulationConfig
from repro.network.message import Message
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


class TestSourceSideDeadlines:
    """The batch fold schedules its checks phase by ``deadline``; each
    must agree with its own ``score``."""

    THRESHOLDS = (1, 4, 128, 1024)

    @staticmethod
    def message(length=32):
        return Message(0, 0, 5, length, 0)

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_source_age_deadline_is_first_cycle_over_threshold(self, t):
        m = self.message()
        assert SourceAgeTimeout.deadline(m, 0, t) is None  # not injected
        m.inject_cycle = 100
        d = SourceAgeTimeout.deadline(m, 101, t)
        assert SourceAgeTimeout.score(m, d - 1) <= t < SourceAgeTimeout.score(m, d)
        # Exact: the instant never moves, so the cycle asked from does not matter.
        assert SourceAgeTimeout.deadline(m, d - 1, t) == d

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_injection_stall_deadline_bounds_score_while_instant_holds(self, t):
        m = self.message()
        assert InjectionStallTimeout.deadline(m, 0, t) is None  # no flit yet
        m.last_source_flit_cycle = 100
        m.flits_at_source = 5
        d = InjectionStallTimeout.deadline(m, 101, t)
        score = InjectionStallTimeout.score
        assert all(score(m, c) <= t for c in range(100, d))
        assert score(m, d) > t
        # A later source flit only pushes it out.
        m.last_source_flit_cycle = 150
        assert InjectionStallTimeout.deadline(m, 151, t) > d
        # Drained: the source no longer sees the worm, now or later.
        m.flits_at_source = 0
        assert InjectionStallTimeout.deadline(m, 151, t) is None
        assert score(m, 151 + 10 * t) == 0


#: Solo runs of both source-side mechanisms on an 8x8, 1-VC torus that
#: wedges (seed 7, load 0.6, threshold 256, no recovery).  Their rule
#: never fires on a routing attempt, so it must not set a blocked header's
#: wake-up cycle either: read through the base ``blocked_deadline``, the
#: rule's ``deadline`` adds 90 deadline wake-ups to the source-age run and
#: 205 to the injection-stall one.
WEDGE_COUNTERS = {
    "route_attempts": 1963,
    "route_parked_skips": 42984,
    "route_parks": 526,
    "move_visits": 8409,
    "move_parked_skips": 40788,
    "move_parks": 323,
    "deadline_wakeups": 0,
}
WEDGE_DETECTIONS = {"source-age": 90, "injection-stall": 58}


@pytest.mark.parametrize("mechanism", sorted(WEDGE_DETECTIONS))
def test_source_side_rules_leave_solo_parking_unchanged(mechanism):
    config = SimulationConfig(
        radix=8, dimensions=2, vcs_per_channel=1, warmup_cycles=0,
        measure_cycles=600, seed=7, recovery="none",
    )
    config.traffic.injection_rate = 0.6
    config.detector.mechanism = mechanism
    config.detector.threshold = 256
    stats = Simulator(config).run()
    assert (stats.detections, stats.engine_counters) == (
        WEDGE_DETECTIONS[mechanism], WEDGE_COUNTERS
    )
