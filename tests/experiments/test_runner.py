"""Tests for the experiment runner (tiny grids only)."""

import pytest

from repro.experiments.runner import (
    CellResult,
    build_cell_config,
    run_cell,
    run_table,
    saturation_rate,
)
from repro.experiments.spec import (
    CALIBRATED_SATURATION_FULL,
    CALIBRATED_SATURATION_QUICK,
    TABLE_SPECS,
    TableSpec,
    base_config,
)
from repro.traffic.patterns import pattern_names


def tiny_base():
    base = base_config(full=False)
    base.radix = 4
    base.warmup_cycles = 100
    base.measure_cycles = 400
    base.ground_truth_interval = 0
    base.detector.t1 = 1
    return base


def tiny_spec(mechanism="ndm") -> TableSpec:
    return TableSpec(
        table_id=2,
        title="tiny",
        mechanism=mechanism,
        pattern="uniform",
        sizes=("s",),
        load_fractions=(0.5,),
        paper_rates=(0.3,),
        thresholds=(8, 32),
        saturated_loads=(0,),
    )


class TestBuildCellConfig:
    def test_fields_propagated(self):
        config = build_cell_config(tiny_base(), tiny_spec("pdm"), 64, "l", 0.25)
        assert config.detector.mechanism == "pdm"
        assert config.detector.threshold == 64
        assert config.traffic.lengths == "l"
        assert config.traffic.injection_rate == 0.25

    def test_base_not_mutated(self):
        base = tiny_base()
        build_cell_config(base, tiny_spec(), 64, "l", 0.25)
        assert base.detector.threshold != 64
        assert base.traffic.injection_rate != 0.25


class TestRunCell:
    def test_cell_result_fields(self):
        cell = run_cell(tiny_base(), tiny_spec(), 32, "s", 0.3)
        assert isinstance(cell, CellResult)
        assert cell.injected > 0
        assert cell.throughput > 0
        assert 0.0 <= cell.percentage <= 100.0

    def test_star_label(self):
        cell = CellResult(
            percentage=1.234, detections=5, messages_detected=4,
            true_detections=1, false_detections=4, injected=100,
            throughput=0.5, injection_rate=0.4, had_true_deadlock=True,
        )
        assert cell.label() == "1.234*"

    def test_plain_label(self):
        cell = CellResult(
            percentage=0.0, detections=0, messages_detected=0,
            true_detections=0, false_detections=0, injected=10,
            throughput=0.1, injection_rate=0.1, had_true_deadlock=False,
        )
        assert cell.label() == "0.000"


class TestRunTable:
    def test_grid_complete(self):
        result = run_table(tiny_spec(), tiny_base(), saturation=1.0, jobs=1)
        assert set(result.cells) == {8, 32}
        for row in result.cells.values():
            assert set(row) == {(0, "s")}

    def test_rates_scaled_by_saturation(self):
        result = run_table(tiny_spec(), tiny_base(), saturation=1.0, jobs=1)
        assert result.rates == (0.5,)

    def test_progress_callback(self):
        seen = []
        run_table(
            tiny_spec(), tiny_base(), saturation=1.0, jobs=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (2, 2)
        assert len(seen) == 2


class TestSaturationRate:
    def test_calibrated_value_used(self):
        rate = saturation_rate(base_config(full=False), TABLE_SPECS[2])
        assert rate == pytest.approx(0.738)

    def test_calibration_covers_every_pattern(self):
        """``saturation_rate`` is a table lookup with no search behind it,
        so every registered pattern needs a calibrated rate at both scales."""
        for table in (CALIBRATED_SATURATION_QUICK, CALIBRATED_SATURATION_FULL):
            assert set(pattern_names()) <= set(table)
        for full in (False, True):
            for pattern in pattern_names():
                spec = TableSpec(table_id=1, title="any", mechanism="ndm",
                                 pattern=pattern)
                assert saturation_rate(base_config(full=full), spec) > 0

    def test_uncalibrated_shape_raises(self):
        """A 4x4 torus has no calibration: the 64-node rate would put its
        "saturated" column far below saturation."""
        with pytest.raises(ValueError, match="4-ary 2-cube torus.*saturation="):
            saturation_rate(tiny_base(), TABLE_SPECS[2])
