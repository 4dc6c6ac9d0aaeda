"""Tests for the channel wait-for graph."""

from repro.analysis.deadlock import find_deadlocked
from repro.analysis.waitgraph import (
    build_wait_graph,
    describe_deadlock,
    tree_depth_histogram,
)
from repro.figures.scenarios import build_figure2, build_figure3
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator


def loaded_torus(rate: float, cycles: int, **overrides) -> Simulator:
    """A 4x4 torus, two lanes per channel, ``cycles`` cycles at ``rate``."""
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=2,
        warmup_cycles=0,
        measure_cycles=10,
        ground_truth_interval=0,
        recovery="none",
        **overrides,
    )
    config.traffic.injection_rate = rate
    config.detector.mechanism = "none"
    sim = Simulator(config)
    for _ in range(cycles):
        sim.step()
    return sim


class TestBuildWaitGraph:
    def test_empty_when_nothing_blocked(self):
        scenario = build_figure2("none")
        scenario.sim.free_worm(scenario.messages["B"], scenario.sim.cycle)
        scenario.sim.free_worm(scenario.messages["C"], scenario.sim.cycle)
        scenario.sim.free_worm(scenario.messages["D"], scenario.sim.cycle)
        graph = build_wait_graph([])
        assert graph.blocked_count() == 0

    def test_figure2_chain_structure(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        names = {m.id: n for n, m in scenario.messages.items()}
        b = scenario.messages["B"]
        c = scenario.messages["C"]
        d = scenario.messages["D"]
        assert graph.holders_of(c) == {b.id}
        assert graph.holders_of(d) == {c.id}
        assert graph.holders_of(b) == {scenario.messages["A"].id}
        assert names  # names resolvable

    def test_figure3_cycle_structure(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        b = scenario.messages["B"]
        e = scenario.messages["E"]
        assert graph.holders_of(b) == {e.id}

    def test_free_alternatives_counted(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        # Single-VC scenario channels: no free alternatives anywhere.
        assert all(v == 0 for v in graph.free_alternatives.values())


class TestCycleAnalysis:
    def test_no_cycle_in_figure2(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        assert graph.candidate_cycles() == []
        assert graph.knot_members() == set()

    def test_cycle_found_in_figure3(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        cycles = graph.candidate_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 4

    def test_knot_matches_fixpoint(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        expected = {m.id for n, m in scenario.messages.items() if n != "A"}
        assert graph.knot_members() == expected

    def test_graph_shape(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        assert graph.blocked_count() == 4
        assert sum(graph.out_degree(m) for m in graph.messages.values()) == 4
        assert all(len(graph.holders_of(m)) == 1 for m in graph.messages.values())


class TestDiagnostics:
    def test_describe_deadlock_lines(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        names = {m.id: n for n, m in scenario.messages.items()}
        lines = describe_deadlock(graph, names)
        assert len(lines) == 4
        assert any("B" in line and "waits on" in line for line in lines)

    def test_describe_deadlock_on_a_faulted_network(self):
        """Four links down: headers with no usable lane left are the knot."""
        sim = loaded_torus(
            0.25,
            300,
            seed=5,
            faults=[
                {"kind": "link-down", "start": 20, "end": 400, "channel": ch}
                for ch in (0, 5, 11, 17)
            ],
        )
        knot = find_deadlocked(sim.active_messages)
        assert knot
        lines = describe_deadlock(build_wait_graph(sim.active_messages))
        assert len(lines) == len(knot)
        for m, line in zip(sorted(knot, key=lambda m: m.id), lines):
            assert line.startswith(f"message {m.id} ")

    def test_waiting_chain_follows_allowed_lanes_under_duato(self):
        """Each wait edge leads to a holder of a lane the header may take."""
        sim = loaded_torus(1.5, 300, seed=3, routing="duato-adaptive")
        blocked = [m for m in sim.active_messages if m.is_blocked() and m.spans]
        assert blocked
        graph = build_wait_graph(sim.active_messages)
        restricted = 0
        for m in blocked:
            lanes = m.feasible_vcs
            restricted += len(lanes) < sum(pc.num_vcs for pc in m.feasible_pcs)
            holders = [
                sim.messages[vc.occupant] for vc in lanes if vc.occupant is not None
            ]
            assert [e.waiter for e in graph.edges[m.id]] == [m] * len(holders)
            assert [e.holder for e in graph.edges[m.id]] == holders
        assert restricted  # some header really is denied an escape lane

    def test_tree_depth_histogram_chain(self):
        scenario = build_figure2("none")
        scenario.run(4)
        graph = build_wait_graph(scenario.sim.active_messages)
        histogram = tree_depth_histogram(graph)
        # D->C->B chain: depths 0 (B: holder A not blocked), 1 (C), 2 (D).
        assert histogram == {0: 1, 1: 1, 2: 1}

    def test_tree_depth_histogram_cycle_saturates(self):
        scenario = build_figure3("none")
        scenario.run(10)
        graph = build_wait_graph(scenario.sim.active_messages)
        histogram = tree_depth_histogram(graph)
        assert histogram == {3: 4}  # each member sees the 3 others
