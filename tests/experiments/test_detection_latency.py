"""Tests for the detection-latency experiment."""

import pytest

from repro.experiments.detection_latency import (
    latency_sweep,
    measure_detection_latency,
    render_latency_table,
)


@pytest.fixture(scope="module")
def ndm_point():
    return measure_detection_latency("ndm", threshold=16)


class TestSinglePoint:
    def test_deadlock_forms_and_is_detected(self, ndm_point):
        assert ndm_point.formation_cycle is not None
        assert ndm_point.detected
        assert ndm_point.latency is not None

    def test_latency_at_least_threshold(self, ndm_point):
        # Detection needs t2 cycles of silence after the cycle closes.
        assert ndm_point.latency >= 0

    def test_ndm_marks_single_message(self, ndm_point):
        assert ndm_point.messages_marked == 1

    def test_pdm_marks_many(self):
        point = measure_detection_latency("pdm", threshold=16)
        assert point.detected
        assert point.messages_marked >= 3

    def test_latency_grows_with_threshold(self):
        for mechanism in ("ndm", "pdm", "timeout"):
            fast = measure_detection_latency(mechanism, threshold=8)
            slow = measure_detection_latency(mechanism, threshold=128)
            assert fast.detected and slow.detected, mechanism
            assert slow.latency > fast.latency + 60, (mechanism, fast, slow)

    def test_undetected_when_detector_none(self):
        point = measure_detection_latency("none", threshold=16, deadline=400)
        assert point.formation_cycle is not None
        assert not point.detected
        assert point.latency is None


class TestSweepAndRendering:
    @pytest.fixture(scope="class")
    def sweep(self):
        return latency_sweep(
            mechanisms=("ndm", "timeout"), thresholds=(8, 64), deadline=1500
        )

    def test_grid_size(self, sweep):
        assert len(sweep) == 4

    def test_all_detected(self, sweep):
        assert all(p.detected for p in sweep)

    def test_render_table(self, sweep):
        text = render_latency_table(sweep)
        assert "mechanism" in text
        assert "ndm" in text
        assert text.count("\n") == len(sweep)

    def test_render_handles_missing(self):
        point = measure_detection_latency("none", threshold=8, deadline=300)
        text = render_latency_table([point])
        assert "-" in text
