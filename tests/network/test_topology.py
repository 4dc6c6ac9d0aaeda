"""Tests for k-ary n-cube and mesh topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import KAryNCube, Mesh


# ----------------------------------------------------------------------
# Construction and coordinates
# ----------------------------------------------------------------------
class TestConstruction:
    def test_node_count_torus(self):
        assert KAryNCube(8, 3).num_nodes == 512

    def test_node_count_quick(self):
        assert KAryNCube(8, 2).num_nodes == 64

    def test_node_count_mesh(self):
        assert Mesh(4, 2).num_nodes == 16

    def test_rejects_radix_below_two(self):
        with pytest.raises(ValueError):
            KAryNCube(1, 2)

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            KAryNCube(4, 0)

    def test_repr_mentions_radix(self):
        assert "radix=8" in repr(KAryNCube(8, 2))


class TestCoordinates:
    def test_coords_node_zero(self):
        assert KAryNCube(8, 3).coords(0) == (0, 0, 0)

    def test_coords_last_node(self):
        assert KAryNCube(8, 3).coords(511) == (7, 7, 7)

    def test_coords_dimension_zero_fastest(self):
        assert KAryNCube(8, 3).coords(1) == (1, 0, 0)

    def test_node_at_inverts_coords(self):
        topo = KAryNCube(8, 3)
        for node in range(0, topo.num_nodes, 37):
            assert topo.node_at(topo.coords(node)) == node

    def test_node_at_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            KAryNCube(8, 3).node_at((1, 2))

    def test_node_at_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            KAryNCube(8, 2).node_at((8, 0))

    @given(st.integers(min_value=0, max_value=63))
    def test_roundtrip_property(self, node):
        topo = KAryNCube(4, 3)
        assert topo.node_at(topo.coords(node)) == node


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------
class TestTorusConnectivity:
    def test_every_direction_has_channel(self):
        topo = KAryNCube(8, 2)
        for direction in topo.directions():
            assert topo.has_channel(0, direction)

    def test_neighbor_positive(self):
        topo = KAryNCube(8, 2)
        assert topo.coords(topo.neighbor(0, (0, +1))) == (1, 0)

    def test_neighbor_wraps_negative(self):
        topo = KAryNCube(8, 2)
        assert topo.coords(topo.neighbor(0, (0, -1))) == (7, 0)

    def test_neighbor_wraps_positive(self):
        topo = KAryNCube(8, 2)
        node = topo.node_at((7, 0))
        assert topo.coords(topo.neighbor(node, (0, +1))) == (0, 0)

    def test_degree_is_2n(self):
        topo = KAryNCube(8, 3)
        assert len(list(topo.neighbors(0))) == 6

    def test_radix2_has_single_channel_per_pair(self):
        topo = KAryNCube(2, 2)
        # Each node should have exactly one outgoing channel per dimension.
        assert len(list(topo.neighbors(0))) == 2

    def test_channels_are_symmetric(self):
        topo = KAryNCube(4, 2)
        for node in range(topo.num_nodes):
            for direction, neighbor in topo.neighbors(node):
                dim, sign = direction
                back = (dim, -sign)
                if topo.has_channel(neighbor, back):
                    assert topo.neighbor(neighbor, back) == node


class TestMeshConnectivity:
    def test_corner_has_n_channels(self):
        topo = Mesh(4, 2)
        assert len(list(topo.neighbors(0))) == 2

    def test_interior_has_2n_channels(self):
        topo = Mesh(4, 2)
        interior = topo.node_at((1, 1))
        assert len(list(topo.neighbors(interior))) == 4

    def test_no_wraparound(self):
        topo = Mesh(4, 2)
        assert not topo.has_channel(0, (0, -1))
        edge = topo.node_at((3, 0))
        assert not topo.has_channel(edge, (0, +1))

    def test_neighbor_raises_off_edge(self):
        topo = Mesh(4, 2)
        with pytest.raises(ValueError):
            topo.neighbor(0, (0, -1))


# ----------------------------------------------------------------------
# Distances
# ----------------------------------------------------------------------
class TestDistance:
    def test_self_distance_zero(self):
        assert KAryNCube(8, 2).distance(5, 5) == 0

    def test_adjacent_distance_one(self):
        topo = KAryNCube(8, 2)
        assert topo.distance(0, topo.neighbor(0, (0, +1))) == 1

    def test_wraparound_shortcut(self):
        topo = KAryNCube(8, 1)
        assert topo.distance(0, 7) == 1

    def test_half_ring(self):
        topo = KAryNCube(8, 1)
        assert topo.distance(0, 4) == 4

    def test_mesh_distance_is_manhattan(self):
        topo = Mesh(4, 2)
        assert topo.distance(topo.node_at((0, 0)), topo.node_at((3, 3))) == 6

    def test_symmetry(self):
        topo = KAryNCube(4, 3)
        for a in range(0, topo.num_nodes, 7):
            for b in range(0, topo.num_nodes, 11):
                assert topo.distance(a, b) == topo.distance(b, a)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b):
        topo = KAryNCube(8, 2)
        via = 17
        assert topo.distance(a, b) <= topo.distance(a, via) + topo.distance(via, b)


# ----------------------------------------------------------------------
# Minimal directions
# ----------------------------------------------------------------------
class TestMinimalDirections:
    def test_empty_at_destination(self):
        assert KAryNCube(8, 2).minimal_directions(3, 3) == ()

    def test_single_dimension_positive(self):
        topo = KAryNCube(8, 2)
        dirs = topo.minimal_directions(topo.node_at((0, 0)), topo.node_at((2, 0)))
        assert dirs == ((0, +1),)

    def test_wraparound_direction(self):
        topo = KAryNCube(8, 2)
        dirs = topo.minimal_directions(topo.node_at((0, 0)), topo.node_at((6, 0)))
        assert dirs == ((0, -1),)

    def test_two_dimensions(self):
        topo = KAryNCube(8, 2)
        dirs = topo.minimal_directions(topo.node_at((0, 0)), topo.node_at((1, 7)))
        assert set(dirs) == {(0, +1), (1, -1)}

    def test_halfway_tie_gives_both(self):
        topo = KAryNCube(8, 1)
        dirs = topo.minimal_directions(0, 4)
        assert set(dirs) == {(0, +1), (0, -1)}

    def test_mesh_never_wraps(self):
        topo = Mesh(8, 1)
        assert topo.minimal_directions(0, 7) == ((0, +1),)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=100)
    def test_directions_reduce_distance(self, a, b):
        topo = KAryNCube(8, 2)
        if a == b:
            return
        for direction in topo.minimal_directions(a, b):
            if not topo.has_channel(a, direction):
                continue
            nxt = topo.neighbor(a, direction)
            assert topo.distance(nxt, b) == topo.distance(a, b) - 1

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=100)
    def test_nonempty_unless_at_destination(self, a, b):
        topo = KAryNCube(8, 2)
        dirs = topo.minimal_directions(a, b)
        assert (len(dirs) > 0) == (a != b)
