"""Tests for the ground-truth deadlock analyzer."""

from repro.analysis.deadlock import find_deadlocked
from repro.figures.scenarios import (
    Scenario,
    build_figure2,
    build_figure3,
    place_worm,
    scenario_config,
)
from repro.network.simulator import Simulator


def quiet_scenario(**kwargs) -> Scenario:
    return Scenario(Simulator(scenario_config("none", 16, **kwargs)))


class TestFindDeadlocked:
    def test_empty_network(self):
        scenario = quiet_scenario()
        assert find_deadlocked(scenario.sim.active_messages) == set()

    def test_single_blocked_message_not_deadlocked(self):
        scenario = quiet_scenario()
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=60, parked=True)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(5)
        assert b.is_blocked()
        # b waits on a non-blocked (parked counts as advancing) holder.
        assert find_deadlocked(sim.active_messages) == set()

    def test_blocked_tree_is_not_deadlock(self):
        scenario = build_figure2("none")
        scenario.run(5)
        assert find_deadlocked(scenario.sim.active_messages) == set()

    def test_cycle_is_deadlock(self):
        scenario = build_figure3("none")
        scenario.run(30)
        deadlocked = find_deadlocked(scenario.sim.active_messages)
        names = sorted(scenario.name_of(m.id) for m in deadlocked)
        assert names == ["B", "C", "D", "E"]

    def test_deadlock_plus_tree_branch(self):
        """A message blocked on a deadlocked one is itself doomed."""
        scenario = build_figure3("none")
        scenario.run(30)
        sim = scenario.sim
        # G enters at (2,1), goes +x to d=(3,1), then wants -y across
        # B's held channel ch(d->a): it waits on the deadlock forever.
        g = place_worm(sim, (2, 1), [(0, +1)], (3, 0), length=16)
        scenario.run(10)
        deadlocked = find_deadlocked(sim.active_messages)
        assert g in deadlocked
        assert len(deadlocked) == 5

    def test_recovery_clears_deadlock(self):
        scenario = build_figure3("ndm", threshold=8, recovery="progressive")
        scenario.run(400)
        assert find_deadlocked(scenario.sim.active_messages) == set()

    def test_free_alternative_escapes(self):
        """A blocked message with any free feasible VC is never deadlocked."""
        config = scenario_config("none", 16)
        config.vcs_per_channel = 2
        scenario = Scenario(Simulator(config))
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=60, parked=True)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(3)
        # The second VC of ch(a->b) is free: b is not even blocked.
        assert not b.is_blocked() or not find_deadlocked(sim.active_messages)
