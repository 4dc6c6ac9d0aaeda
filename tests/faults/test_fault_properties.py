"""Property-based tests of the fault subsystem (hypothesis).

The properties the subsystem promises, explored over random topologies,
loads, detectors and fault schedules:

* the scan and event engines produce bit-identical behaviour under any
  schedule (``to_dict(include_perf=False)`` equality);
* simulator invariants hold on *every* cycle while faults fire;
* flits are conserved: faults block and delay worms but never destroy
  flits, so per-message conservation and the delivery ledger hold at
  drain;
* runs are deterministic: the same (config, schedule) replays exactly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.conformance import channel_count
from repro.faults.spec import random_faults
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params_strategy = st.fixed_dictionaries(
    {
        "dimensions": st.sampled_from([1, 2]),
        "vcs_per_channel": st.integers(min_value=1, max_value=2),
        "rate": st.floats(min_value=0.05, max_value=0.5),
        "mechanism": st.sampled_from(["ndm", "pdm", "timeout", "probe"]),
        "recovery": st.sampled_from(["progressive", "none"]),
        "threshold": st.sampled_from([8, 16]),
        "seed": st.integers(min_value=0, max_value=2**16),
        "fault_seed": st.integers(min_value=0, max_value=2**16),
        "fault_count": st.integers(min_value=1, max_value=6),
    }
)


def build_config(params, engine: str = "event") -> SimulationConfig:
    config = SimulationConfig(
        radix=4,
        dimensions=params["dimensions"],
        vcs_per_channel=params["vcs_per_channel"],
        warmup_cycles=30,
        measure_cycles=170,
        drain_cycles=300,
        seed=params["seed"],
        engine=engine,
        ground_truth_interval=0,
        recovery=params["recovery"],
    )
    config.traffic.injection_rate = params["rate"]
    config.detector.mechanism = params["mechanism"]
    config.detector.threshold = params["threshold"]
    config.faults = random_faults(
        seed=params["fault_seed"],
        num_channels=channel_count(config),
        num_nodes=config.build_topology().num_nodes,
        num_vcs=config.vcs_per_channel,
        horizon=config.warmup_cycles + config.measure_cycles,
        count=params["fault_count"],
        max_window=100,
    )
    return config


class TestEngineEquivalence:
    @given(params_strategy)
    @SLOW
    def test_scan_and_event_bit_identical(self, params):
        runs = {}
        for engine in ("scan", "event"):
            sim = Simulator(build_config(params, engine))
            stats = sim.run()
            runs[engine] = (
                stats.to_dict(include_perf=False),
                sorted(m.id for m in sim.active_messages),
            )
        assert runs["scan"] == runs["event"]


class TestInvariantsUnderFaults:
    @given(params_strategy)
    @SLOW
    def test_invariants_hold_every_cycle(self, params):
        sim = Simulator(build_config(params))
        for _ in range(200):
            sim.step()
            sim.check_invariants()

    @given(params_strategy)
    @SLOW
    def test_usable_mask_restored_after_all_windows(self, params):
        config = build_config(params)
        sim = Simulator(config)
        sim.run()
        # A fully drained run can stop before late windows close; step the
        # clock past the last end edge so every heal has fired.
        last_end = max(f["end"] for f in config.faults)
        while sim.cycle <= last_end:
            sim.step()
        for pc in sim.channels:
            assert not pc.fault_down
            assert pc.stuck_mask == 0
            assert pc.usable_mask == (1 << pc.num_vcs) - 1


class TestConservation:
    @given(params_strategy)
    @SLOW
    def test_no_lost_flits_at_drain(self, params):
        sim = Simulator(build_config(params))
        stats = sim.run()
        for message in sim.active_messages:
            message.check_conservation()
        in_network = [
            m
            for m in sim.active_messages
            if m.status is MessageStatus.IN_NETWORK
        ]
        # Every injected message is either delivered, aborted by regressive
        # recovery (none here), or still accounted for in the network.
        assert stats.delivered + len(in_network) >= stats.injected
        if not sim.active_messages:
            assert stats.delivered == stats.injected


class TestDeterminism:
    @given(params_strategy)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replay_identical(self, params):
        a = Simulator(build_config(params)).run()
        b = Simulator(build_config(params)).run()
        assert a.to_dict(include_perf=False) == b.to_dict(include_perf=False)
        assert a.fault_edges == b.fault_edges
