"""Property-based consistency between the wait graph and the fixpoint oracle."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.deadlock import find_deadlocked
from repro.analysis.waitgraph import build_wait_graph
from repro.faults.conformance import channel_count
from repro.faults.spec import random_faults
from repro.network.config import SimulationConfig
from repro.network.probes import wait_edges
from repro.network.simulator import Simulator

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "rate": st.floats(min_value=0.2, max_value=0.9),
        "vcs": st.integers(min_value=1, max_value=3),
        "cycles": st.integers(min_value=100, max_value=400),
        "routing": st.sampled_from(["fully-adaptive", "duato-adaptive"]),
        "fault_seed": st.none() | st.integers(min_value=0, max_value=2**16),
    }
)


def build_sim(params) -> Simulator:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=params["vcs"],
        warmup_cycles=0,
        measure_cycles=10,
        seed=params["seed"],
        ground_truth_interval=0,
        routing=params["routing"],
    )
    config.traffic.injection_rate = params["rate"]
    config.detector.mechanism = "none"
    config.recovery = "none"
    if params["fault_seed"] is not None:
        config.faults = random_faults(
            seed=params["fault_seed"],
            num_channels=channel_count(config),
            num_nodes=config.build_topology().num_nodes,
            num_vcs=config.vcs_per_channel,
            horizon=params["cycles"],
            count=6,
            kinds=("link-down", "vc-stuck"),
        )
    sim = Simulator(config)
    for _ in range(params["cycles"]):
        sim.step()
    return sim


class TestWaitGraphProperties:
    @given(params_strategy)
    @SLOW
    def test_knot_equals_fixpoint(self, params):
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        fixpoint_ids = {m.id for m in find_deadlocked(sim.active_messages)}
        assert graph.knot_members() == fixpoint_ids

    @given(params_strategy)
    @SLOW
    def test_knot_members_have_no_free_alternatives(self, params):
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        for message_id in graph.knot_members():
            assert graph.free_alternatives[message_id] == 0

    @given(params_strategy)
    @SLOW
    def test_edges_point_at_real_occupants(self, params):
        """Graph, probes and header agree on one relation, lane for lane."""
        sim = build_sim(params)
        graph = build_wait_graph(sim.active_messages)
        assert set(graph.messages) == {
            m.id for m in sim.active_messages if m.is_blocked() and m.spans
        }
        for message_id, m in graph.messages.items():
            # Re-derived from the routing function, not read back from the
            # recorded tuple: this is the reference the record must equal.
            lanes = [
                vc
                for pc in m.feasible_pcs
                for vc in sim.routing_fn.allowed_vcs(
                    sim.topology, pc, pc.vcs(sim.lanes), m.header_router(), m.dest
                )
                if (pc.usable_mask >> vc.index) & 1
            ]
            occupied = [
                (vc.pc.index, vc.index, sim.messages[vc.occupant])
                for vc in lanes
                if vc.occupant is not None
            ]
            free = len(lanes) - len(occupied)
            assert [
                (e.channel_index, e.vc_index, e.holder)
                for e in graph.edges[message_id]
            ] == occupied
            assert graph.free_alternatives[message_id] == free
            escape, holders = wait_edges(m, sim.messages)
            assert escape == (free > 0)
            if not escape:
                assert holders == [holder for _, _, holder in occupied]

    @given(params_strategy)
    @SLOW
    def test_knot_is_cyclic_in_graph(self, params):
        """A knot none of whose members is a dead end contains a cycle."""
        sim = build_sim(params)
        knot = build_wait_graph(find_deadlocked(sim.active_messages))
        if not knot.messages or any(
            knot.out_degree(m) == 0 for m in knot.messages.values()
        ):
            return  # empty, or held together by a faulted-out header
        assert knot.candidate_cycles(limit=1)
