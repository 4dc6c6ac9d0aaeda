"""Tests for the workload glue (rate conversion)."""

import pytest

from repro.network.config import TrafficConfig
from repro.network.topology import KAryNCube
from repro.traffic.workload import Workload


@pytest.fixture
def topo():
    return KAryNCube(8, 2)


def make_workload(topo, rate=0.32, lengths="s", pattern="uniform", **params):
    config = TrafficConfig(
        pattern=pattern,
        pattern_params=params,
        lengths=lengths,
        injection_rate=rate,
    )
    return Workload(config, topo)


class TestGenerationProbability:
    def test_rate_divided_by_mean_length(self, topo):
        wl = make_workload(topo, rate=0.32, lengths="s")
        assert wl.generation_probability == pytest.approx(0.32 / 16)

    def test_sl_uses_mixture_mean(self, topo):
        wl = make_workload(topo, rate=0.352, lengths="sl")
        assert wl.generation_probability == pytest.approx(0.352 / 35.2)

    def test_rate_beyond_one_message_per_cycle_rejected(self, topo):
        with pytest.raises(ValueError, match="exceeds one message per cycle"):
            make_workload(topo, rate=20.0, lengths="s")
