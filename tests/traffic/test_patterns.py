"""Tests for traffic destination patterns."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import KAryNCube
from repro.traffic.patterns import (
    BitReversalPattern,
    ButterflyPattern,
    HotSpotPattern,
    LocalityPattern,
    PerfectShufflePattern,
    UniformPattern,
    make_pattern,
    pattern_names,
)


@pytest.fixture(scope="module")
def topo():
    return KAryNCube(8, 2)  # 64 = 2**6 nodes


@pytest.fixture
def rng():
    return random.Random(99)


class TestFactory:
    def test_all_names_constructible(self, topo):
        for name in pattern_names():
            assert make_pattern(name, topo).name == name

    def test_unknown_name_raises(self, topo):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            make_pattern("zipf", topo)

    def test_params_forwarded(self, topo):
        pattern = make_pattern("hot-spot", topo, fraction=0.25)
        assert pattern.fraction == 0.25


class TestUniform:
    def test_never_self(self, topo, rng):
        pattern = UniformPattern(topo)
        for source in range(topo.num_nodes):
            for _ in range(20):
                assert pattern.destination(source, rng) != source

    def test_covers_all_other_nodes(self, topo, rng):
        pattern = UniformPattern(topo)
        seen = {pattern.destination(0, rng) for _ in range(4000)}
        assert seen == set(range(1, topo.num_nodes))

    def test_roughly_uniform(self, topo, rng):
        pattern = UniformPattern(topo)
        counts = [0] * topo.num_nodes
        n = 63 * 400
        for _ in range(n):
            counts[pattern.destination(17, rng)] += 1
        expect = n / 63
        nonself = [c for i, c in enumerate(counts) if i != 17]
        assert min(nonself) > expect * 0.6
        assert max(nonself) < expect * 1.4

    def test_full_sending_fraction(self, topo):
        assert UniformPattern(topo).sending_fraction() == 1.0


class TestLocality:
    def test_destinations_within_radius(self, topo, rng):
        pattern = LocalityPattern(topo, radius=1)
        for _ in range(300):
            dest = pattern.destination(0, rng)
            dcoords = topo.coords(dest)
            for c in dcoords:
                assert c in (0, 1, 7)  # within +-1 with wraparound

    def test_never_self(self, topo, rng):
        pattern = LocalityPattern(topo, radius=2)
        for _ in range(300):
            assert pattern.destination(9, rng) != 9

    def test_radius_validation(self, topo):
        with pytest.raises(ValueError):
            LocalityPattern(topo, radius=0)
        with pytest.raises(ValueError):
            LocalityPattern(topo, radius=4)  # 2*4+1 > radix 8

    def test_mean_distance_small(self, topo, rng):
        pattern = LocalityPattern(topo, radius=1)
        dists = [
            topo.distance(5, pattern.destination(5, rng)) for _ in range(500)
        ]
        assert sum(dists) / len(dists) < 2.0


class TestBitPermutations:
    @pytest.mark.parametrize(
        "cls",
        [BitReversalPattern, PerfectShufflePattern, ButterflyPattern],
    )
    def test_permutation_is_bijective(self, cls, topo):
        pattern = cls(topo)
        images = {pattern.permute(i) for i in range(topo.num_nodes)}
        assert images == set(range(topo.num_nodes))

    def test_bit_reversal_example(self, topo):
        pattern = BitReversalPattern(topo)
        # 6 bits: 0b000001 -> 0b100000
        assert pattern.permute(1) == 32
        assert pattern.permute(32) == 1

    def test_perfect_shuffle_rotates(self, topo):
        pattern = PerfectShufflePattern(topo)
        # 0b100000 rotl1 -> 0b000001
        assert pattern.permute(32) == 1
        assert pattern.permute(1) == 2

    def test_butterfly_swaps_msb_lsb(self, topo):
        pattern = ButterflyPattern(topo)
        assert pattern.permute(1) == 32
        assert pattern.permute(33) == 33  # MSB == LSB: fixed point

    def test_fixed_points_return_none(self, topo, rng):
        pattern = BitReversalPattern(topo)
        palindromes = [i for i in range(64) if pattern.permute(i) == i]
        assert palindromes  # 6-bit palindromes exist
        for i in palindromes:
            assert pattern.destination(i, rng) is None

    def test_butterfly_sending_fraction_half(self, topo):
        assert ButterflyPattern(topo).sending_fraction() == 0.5

    def test_bit_reversal_sending_fraction(self, topo):
        # 6-bit palindromes: 2**3 = 8 of 64 -> 87.5% send.
        assert BitReversalPattern(topo).sending_fraction() == pytest.approx(0.875)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            BitReversalPattern(KAryNCube(3, 2))

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=64)
    def test_reversal_is_involution(self, index):
        pattern = BitReversalPattern(KAryNCube(8, 2))
        assert pattern.permute(pattern.permute(index)) == index


class TestHotSpot:
    def test_hot_fraction_respected(self, topo, rng):
        pattern = HotSpotPattern(topo, fraction=0.3)
        hot = pattern.hot_node
        hits = sum(
            1 for _ in range(4000) if pattern.destination(0, rng) == hot
        )
        # 30% explicit + ~1/63 background uniform hits.
        assert 0.25 < hits / 4000 < 0.38

    def test_default_hot_node_center(self, topo):
        pattern = HotSpotPattern(topo)
        assert topo.coords(pattern.hot_node) == (4, 4)

    def test_hot_node_never_targets_itself_via_hotspot(self, topo, rng):
        pattern = HotSpotPattern(topo, fraction=0.99)
        for _ in range(100):
            assert pattern.destination(pattern.hot_node, rng) != pattern.hot_node

    def test_fraction_validation(self, topo):
        with pytest.raises(ValueError):
            HotSpotPattern(topo, fraction=0.0)
        with pytest.raises(ValueError):
            HotSpotPattern(topo, fraction=1.0)

    def test_explicit_hot_node(self, topo):
        pattern = HotSpotPattern(topo, hot_node=7)
        assert pattern.hot_node == 7
