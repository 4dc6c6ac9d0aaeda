"""Tests for the experiment specifications."""

import pytest

from repro.experiments.spec import (
    CALIBRATED_SATURATION_FULL,
    CALIBRATED_SATURATION_QUICK,
    PAPER_THRESHOLDS,
    TABLE_SPECS,
    base_config,
    calibrated_saturation,
    quick_spec,
    table_spec,
)


class TestTableSpecs:
    def test_paper_tables_plus_probe_extension_defined(self):
        assert sorted(TABLE_SPECS) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_table8_is_probe_uniform_extension(self):
        assert TABLE_SPECS[8].mechanism == "probe"
        assert TABLE_SPECS[8].pattern == "uniform"

    def test_table1_is_pdm_uniform(self):
        assert TABLE_SPECS[1].mechanism == "pdm"
        assert TABLE_SPECS[1].pattern == "uniform"

    def test_tables_2_to_7_are_ndm(self):
        for tid in range(2, 8):
            assert TABLE_SPECS[tid].mechanism == "ndm"

    def test_patterns_match_paper(self):
        assert TABLE_SPECS[3].pattern == "locality"
        assert TABLE_SPECS[4].pattern == "bit-reversal"
        assert TABLE_SPECS[5].pattern == "perfect-shuffle"
        assert TABLE_SPECS[6].pattern == "butterfly"
        assert TABLE_SPECS[7].pattern == "hot-spot"

    def test_uniform_tables_have_four_sizes(self):
        assert TABLE_SPECS[1].sizes == ("s", "l", "L", "sl")
        assert TABLE_SPECS[2].sizes == ("s", "l", "L", "sl")

    def test_other_tables_have_three_sizes(self):
        for tid in range(3, 8):
            assert TABLE_SPECS[tid].sizes == ("s", "l", "sl")

    def test_load_fractions_increasing_to_saturation(self):
        for spec in TABLE_SPECS.values():
            fractions = spec.load_fractions
            assert all(a < b for a, b in zip(fractions, fractions[1:]))
            assert fractions[-1] >= 1.0

    def test_paper_rates_recorded(self):
        assert TABLE_SPECS[2].paper_rates == (0.428, 0.471, 0.514, 0.600)
        assert TABLE_SPECS[7].paper_rates == (0.0628, 0.0707, 0.0786, 0.0862)

    def test_thresholds_are_powers_of_two(self):
        for spec in TABLE_SPECS.values():
            for threshold in spec.thresholds:
                assert threshold & (threshold - 1) == 0

    def test_paper_thresholds_span_2_to_1024(self):
        assert PAPER_THRESHOLDS[0] == 2
        assert PAPER_THRESHOLDS[-1] == 1024


class TestQuickSpec:
    def test_quick_grid_is_smaller(self):
        full = TABLE_SPECS[2]
        quick = quick_spec(full)
        assert len(quick.thresholds) < len(full.thresholds)
        assert len(quick.load_fractions) == 2
        assert set(quick.sizes) <= set(full.sizes) | {"sl"}

    def test_quick_keeps_saturated_load(self):
        quick = quick_spec(TABLE_SPECS[2])
        assert quick.load_fractions[-1] == TABLE_SPECS[2].load_fractions[-1]

    def test_quick_hotspot_scales_fraction(self):
        quick = quick_spec(TABLE_SPECS[7])
        assert quick.pattern_params["fraction"] == pytest.approx(0.4)
        # The full-scale spec keeps the paper's 5%.
        assert TABLE_SPECS[7].pattern_params["fraction"] == pytest.approx(0.05)


class TestBaseConfig:
    def test_quick_base_is_64_nodes(self):
        assert base_config(full=False).build_topology().num_nodes == 64

    def test_quick_is_the_default(self):
        """Only ``full=True`` (the CLI's ``--full``) selects paper scale."""
        assert base_config().build_topology().num_nodes == 64
        assert table_spec(2) == quick_spec(TABLE_SPECS[2])
        assert calibrated_saturation() == CALIBRATED_SATURATION_QUICK

    def test_full_base_is_512_nodes(self):
        assert base_config(full=True).build_topology().num_nodes == 512

    def test_full_base_longer_windows(self):
        assert (
            base_config(full=True).measure_cycles
            > base_config(full=False).measure_cycles
        )


class TestCalibration:
    def test_all_patterns_calibrated(self):
        patterns = {spec.pattern for spec in TABLE_SPECS.values()}
        assert patterns <= set(CALIBRATED_SATURATION_QUICK)
        assert patterns <= set(CALIBRATED_SATURATION_FULL)

    def test_calibrated_saturation_selects_mode(self):
        assert calibrated_saturation(full=False) == CALIBRATED_SATURATION_QUICK
        assert calibrated_saturation(full=True) == CALIBRATED_SATURATION_FULL

    def test_locality_saturates_much_higher_than_uniform(self):
        # The paper's locality loads run ~3x the uniform ones.
        for table in (CALIBRATED_SATURATION_QUICK, CALIBRATED_SATURATION_FULL):
            assert table["locality"] > 2 * table["uniform"]

    def test_hotspot_saturates_lowest(self):
        # The hot node bounds the saturation rate well below uniform's.
        for table in (CALIBRATED_SATURATION_QUICK, CALIBRATED_SATURATION_FULL):
            assert table["hot-spot"] == min(table.values())
            assert table["hot-spot"] < 0.5 * table["uniform"]
