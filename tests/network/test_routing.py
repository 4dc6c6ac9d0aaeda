"""Tests for routing functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import PhysicalChannel
from repro.network.config import SimulationConfig
from repro.network.message import Message
from repro.network.routing import (
    DimensionOrder,
    TrueFullyAdaptive,
    make_routing_function,
    routing_function_names,
)
from repro.network.simulator import Simulator
from repro.network.topology import KAryNCube, Mesh


class TestFactory:
    def test_make_fully_adaptive(self):
        assert isinstance(make_routing_function("fully-adaptive"), TrueFullyAdaptive)

    def test_make_dimension_order(self):
        assert isinstance(make_routing_function("dimension-order"), DimensionOrder)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown routing function"):
            make_routing_function("magic")

    def test_names_listed(self):
        assert set(routing_function_names()) == {
            "fully-adaptive",
            "dimension-order",
            "duato-adaptive",
        }


class TestTrueFullyAdaptive:
    def setup_method(self):
        self.topo = KAryNCube(8, 2)
        self.rf = TrueFullyAdaptive()

    def test_empty_at_destination(self):
        assert self.rf.candidates(self.topo, 5, 5) == ()

    def test_all_minimal_directions_offered(self):
        cur = self.topo.node_at((0, 0))
        dst = self.topo.node_at((2, 2))
        assert set(self.rf.candidates(self.topo, cur, dst)) == {(0, +1), (1, +1)}

    def test_single_direction_when_one_dim_left(self):
        cur = self.topo.node_at((2, 0))
        dst = self.topo.node_at((5, 0))
        assert self.rf.candidates(self.topo, cur, dst) == ((0, +1),)

    def test_deadlock_prone_flag(self):
        assert TrueFullyAdaptive.deadlock_prone

    def test_halfway_tie_offers_both(self):
        topo = KAryNCube(8, 1)
        assert set(self.rf.candidates(topo, 0, 4)) == {(0, +1), (0, -1)}

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=100)
    def test_candidates_always_minimal(self, cur, dst):
        topo = KAryNCube(8, 2)
        rf = TrueFullyAdaptive()
        base = topo.distance(cur, dst)
        for direction in rf.candidates(topo, cur, dst):
            nxt = topo.neighbor(cur, direction)
            assert topo.distance(nxt, dst) == base - 1


class TestDimensionOrder:
    def setup_method(self):
        self.topo = Mesh(4, 2)
        self.rf = DimensionOrder()

    def test_single_candidate(self):
        cur = self.topo.node_at((0, 0))
        dst = self.topo.node_at((3, 3))
        assert len(self.rf.candidates(self.topo, cur, dst)) == 1

    def test_corrects_lowest_dimension_first(self):
        cur = self.topo.node_at((0, 0))
        dst = self.topo.node_at((3, 3))
        assert self.rf.candidates(self.topo, cur, dst) == ((0, +1),)

    def test_moves_to_next_dimension_when_done(self):
        cur = self.topo.node_at((3, 0))
        dst = self.topo.node_at((3, 3))
        assert self.rf.candidates(self.topo, cur, dst) == ((1, +1),)

    def test_empty_at_destination(self):
        assert self.rf.candidates(self.topo, 7, 7) == ()

    def test_not_deadlock_prone(self):
        assert not DimensionOrder.deadlock_prone

    def test_torus_tie_break_deterministic(self):
        topo = KAryNCube(8, 1)
        assert DimensionOrder().candidates(topo, 0, 4) == ((0, +1),)

    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=60)
    def test_follows_a_single_deterministic_path(self, cur, dst):
        topo = Mesh(4, 2)
        rf = DimensionOrder()
        node = cur
        hops = 0
        while node != dst:
            (direction,) = rf.candidates(topo, node, dst)
            node = topo.neighbor(node, direction)
            hops += 1
            assert hops <= topo.distance(cur, dst)
        assert hops == topo.distance(cur, dst)


# ----------------------------------------------------------------------
# The routers' rows: what the simulator actually routes from
# ----------------------------------------------------------------------
SHAPES = {
    "4ary-2cube": ("torus", 4, 2),
    "8ary-2cube": ("torus", 8, 2),  # even radix: the half-ring (+1, -1) tie
    "mesh-4x4": ("mesh", 4, 2),
    "2ary-3cube": ("torus", 2, 3),  # one channel per node pair
    "5ary-2cube": ("torus", 5, 2),
}


def _blocked_everywhere(shape, routing):
    """A simulator on which no lane is grantable, so every first routing
    attempt blocks and records the candidates it was offered."""
    topology, radix, dimensions = SHAPES[shape]
    config = SimulationConfig(
        topology=topology,
        radix=radix,
        dimensions=dimensions,
        routing=routing,
        engine="scan",
    )
    config.detector.mechanism = "none"
    sim = Simulator(config)
    for pc in sim.channels:
        pc.usable_mask = 0
    return sim


@pytest.mark.parametrize("routing", routing_function_names())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_first_attempt_offers_exactly_what_candidates_says(shape, routing):
    """Every (node, dest) pair, order included: ``rng.choice`` draws from
    this tuple, so a reordering is a different run."""
    sim = _blocked_everywhere(shape, routing)
    rule = make_routing_function(routing)
    nodes = range(sim.topology.num_nodes)
    for node in nodes:
        router = sim.routers[node]
        for dest in nodes:
            if dest == node:
                expected = tuple(router.ejection_pcs)
            else:
                expected = tuple(
                    router.output_pcs[d]
                    for d in rule.candidates(sim.topology, node, dest)
                )
            m = Message(0, (dest + 1) % len(nodes), dest, 4, 0)
            # The header waits at node, in its first injection lane.
            m.spans = [sim.lanes[router.injection_pcs[0].lane0]]
            assert not sim._attempt_route(m, 0)
            assert m.feasible_pcs == expected, (node, dest)


def test_routing_state_does_not_grow_with_run_length():
    """The routing function and the routers' rows are fixed at construction:
    300 saturated cycles on the 8x8 torus add nothing to them."""
    config = SimulationConfig(radix=8, dimensions=2, seed=3)
    config.traffic.injection_rate = 1.0
    sim = Simulator(config)

    def sizes():
        seen, stack, out = set(), [sim.routing_fn], []
        for r in sim.routers:
            stack += [r.route_rows, r.ejection_row]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, dict):
                out.append(len(obj))
                stack += list(obj.keys()) + list(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                out.append(len(obj))
                stack += [x for x in obj if not isinstance(x, PhysicalChannel)]
            elif hasattr(obj, "__dict__"):
                stack.append(vars(obj))
        return sorted(out)

    before = sizes()
    for _ in range(300):
        sim.step()
    assert any(m.is_blocked() for m in sim.pending_route)  # saturated
    assert sizes() == before
    assert not hasattr(sim.routing_fn, "_cache")
