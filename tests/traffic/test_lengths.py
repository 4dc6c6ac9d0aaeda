"""Tests for message length specifications."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.lengths import (
    BimodalLength,
    FixedLength,
    PAPER_SIZES,
    make_length_spec,
)


@pytest.fixture
def rng():
    return random.Random(5)


class TestFixed:
    def test_draws_constant(self, rng):
        spec = FixedLength(16)
        assert all(spec.draw(rng) == 16 for _ in range(10))

    def test_mean(self):
        assert FixedLength(64).mean() == 64.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            FixedLength(0)


class TestBimodal:
    def test_only_two_lengths(self, rng):
        spec = BimodalLength(short=16, long=64, short_fraction=0.6)
        assert {spec.draw(rng) for _ in range(200)} == {16, 64}

    def test_mean_matches_mix(self):
        spec = BimodalLength(16, 64, 0.6)
        assert spec.mean() == pytest.approx(0.6 * 16 + 0.4 * 64)

    def test_fraction_statistics(self, rng):
        spec = BimodalLength(16, 64, 0.6)
        shorts = sum(1 for _ in range(5000) if spec.draw(rng) == 16)
        assert 0.55 < shorts / 5000 < 0.65

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            BimodalLength(16, 64, 1.5)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            BimodalLength(0, 64, 0.5)


class TestPaperNames:
    @pytest.mark.parametrize(
        "name,expected_mean",
        [("s", 16), ("l", 64), ("L", 256), ("sl", 35.2)],
    )
    def test_paper_shorthands(self, name, expected_mean):
        assert make_length_spec(name).mean() == pytest.approx(expected_mean)

    def test_paper_sizes_documented(self):
        assert set(PAPER_SIZES) == {"s", "l", "L", "sl"}

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown length spec"):
            make_length_spec("xl")

    @pytest.mark.parametrize("name", ["fixed", "bimodal", "uniform"])
    def test_only_the_paper_sizes_are_named(self, name):
        with pytest.raises(ValueError, match="unknown length spec"):
            make_length_spec(name)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=30)
    def test_fixed_mean_equals_value(self, flits):
        assert FixedLength(flits).mean() == flits
