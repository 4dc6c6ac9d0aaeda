"""Tests for the latency/throughput load-sweep experiment."""

import pytest

from repro.experiments.latency import LoadSweep, default_rates, sweep_load
from tests.conftest import small_config


@pytest.fixture(scope="module")
def sweep() -> LoadSweep:
    base = small_config()
    base.warmup_cycles = 200
    base.measure_cycles = 900
    return sweep_load(base, rates=[0.1, 0.4, 0.8, 1.2, 1.6], seed=5)


class TestSweepLoad:
    def test_one_point_per_rate(self, sweep):
        assert [p.offered for p in sweep.points] == [0.1, 0.4, 0.8, 1.2, 1.6]

    def test_throughput_monotone_then_flat(self, sweep):
        thr = [p.throughput for p in sweep.points]
        assert thr[1] > thr[0]
        assert max(thr) <= 2.0  # physical bound of the 4-ary 2-cube

    def test_latency_grows_with_load(self, sweep):
        lats = [p.avg_latency for p in sweep.points if p.avg_latency]
        assert lats[-1] > lats[0]

    def test_network_latency_below_total(self, sweep):
        for p in sweep.points:
            if p.avg_latency is not None and p.avg_network_latency is not None:
                assert p.avg_network_latency <= p.avg_latency + 1e-9


class TestLoadSweepAnalysis:
    def test_knee_detected(self, sweep):
        knee = sweep.knee(factor=2.0)
        assert knee is not None
        assert knee.offered >= 0.4

    def test_knee_none_when_flat(self):
        base = small_config()
        base.warmup_cycles = 100
        base.measure_cycles = 400
        flat = sweep_load(base, rates=[0.05, 0.08], seed=5)
        assert flat.knee(factor=5.0) is None

    def test_rows_render(self, sweep):
        rows = sweep.rows()
        assert len(rows) == len(sweep.points) + 1
        assert "offered" in rows[0]
        assert "0.100" in rows[1]

    def test_empty_sweep(self):
        empty = LoadSweep(points=[])
        assert empty.knee() is None


class TestDefaultRates:
    def test_span_and_count(self):
        rates = default_rates(saturation=1.0, steps=8)
        assert len(rates) == 8
        assert rates[0] == pytest.approx(0.2)
        assert rates[-1] == pytest.approx(1.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_rates(saturation=0.0)
        with pytest.raises(ValueError):
            default_rates(saturation=1.0, steps=1)
