"""Property-based tests of the probe detector family (hypothesis).

The guarantees the issue demands of the probe subsystem, explored over
random topologies, loads, fault schedules and probe configurations:

* **no probe storms** — outstanding probes per initiator never exceed
  ``max_outstanding + 1`` (the +1 is the single returning probe allowed
  to bypass the cap), on every single cycle; every live session belongs
  to a distinct blocked header, and a session whose initiator moved on
  is retired by the very next probe phase;
* **no false negatives** — any message the fault-aware oracle holds as
  truly deadlocked at end of run was detected at least once, under
  default caps (an explicit tiny ``max_hops`` legitimately forfeits
  long cycles, so the guarantee is stated for the default knobs);
* **engine equality** — scan and event runs are bit-identical for every
  probe configuration, including non-default hop/outstanding caps;
* **precision** — probe detections are never graded as false positives
  by the conformance oracle (edge-chasing proves its cycles).
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.deadlock import find_deadlocked
from repro.faults.conformance import channel_count, graded_run
from repro.faults.spec import random_faults
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params_strategy = st.fixed_dictionaries(
    {
        "dimensions": st.sampled_from([1, 2]),
        "vcs_per_channel": st.integers(min_value=1, max_value=2),
        "rate": st.floats(min_value=0.1, max_value=0.5),
        "threshold": st.sampled_from([4, 8, 16]),
        "max_hops": st.sampled_from([2, 8, 64]),
        "max_outstanding": st.sampled_from([1, 4, 64]),
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
        ground_truth_interval=100,
        recovery="progressive",
    )
    config.traffic.injection_rate = params["rate"]
    config.detector.mechanism = "probe"
    config.detector.threshold = params["threshold"]
    config.detector.probe_max_hops = params["max_hops"]
    config.detector.probe_max_outstanding = params["max_outstanding"]
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


class TestNoProbeStorms:
    @given(params_strategy)
    @SLOW
    def test_outstanding_bounded_every_cycle(self, params):
        sim = Simulator(build_config(params))
        transport = sim.detector.transport
        cap = transport.max_outstanding + 1
        for _ in range(300):
            sim.step()
            for session in transport.sessions.values():
                assert len(session.probes) <= cap
        assert sim.stats.probe_peak_outstanding <= cap

    @given(params_strategy)
    # Message 54 blocks at cycle 140 and is routed in cycle 144's routing
    # phase, after that cycle's probe phase: at end of cycle no header is
    # blocked and its session is still in the dict, until cycle 145.
    @example(
        {
            "dimensions": 2,
            "vcs_per_channel": 1,
            "rate": 0.3828125,
            "threshold": 4,
            "max_hops": 2,
            "max_outstanding": 1,
            "seed": 600,
            "fault_seed": 0,
            "fault_count": 3,
        }
    )
    @SLOW
    def test_sessions_bounded_by_blocked_messages(self, params):
        """Live sessions never outnumber blocked headers, and a stale
        session lasts at most until the next probe phase.

        The transport holds no simulator hooks, so it learns that an
        initiator moved on (routed, recovered, re-blocked elsewhere)
        only when it next advances; between a routing phase and the
        following probe phase the dict may hold such a session.
        """
        sim = Simulator(build_config(params))
        transport = sim.detector.transport
        stale = []
        for _ in range(300):
            sim.step()
            for session in stale:
                assert transport.sessions.get(session.initiator.id) is not session
            live, stale = [], []
            for session in transport.sessions.values():
                initiator = session.initiator
                if (
                    initiator.is_blocked()
                    and not initiator.marked_deadlocked
                    and initiator.blocked_since == session.episode
                ):
                    live.append(session)
                else:
                    stale.append(session)
            blocked = sum(1 for m in sim.active_messages if m.is_blocked())
            assert len(live) <= blocked


class TestNoFalseNegatives:
    @given(params_strategy)
    @SLOW
    def test_default_caps_catch_every_oracle_deadlock(self, params):
        # The FN guarantee is stated for the default caps: a tiny
        # explicit max_hops legitimately forfeits cycles longer than the
        # cap (counted in probe_dropped_hops instead).
        config = build_config(params)
        config.detector.probe_max_hops = 64
        config.detector.probe_max_outstanding = 64
        stats, _ = graded_run(config)
        assert stats.oracle_missed_messages == 0

    @given(params_strategy)
    @SLOW
    def test_probe_detections_are_never_false_positives(self, params):
        config = build_config(params)
        stats, _ = graded_run(config)
        assert stats.oracle_false_positive_events == 0


class TestEngineEquality:
    @given(params_strategy)
    @SLOW
    def test_scan_and_event_bit_identical_for_all_probe_configs(self, params):
        runs = {}
        for engine in ("scan", "event"):
            sim = Simulator(build_config(params, engine))
            stats = sim.run()
            runs[engine] = (
                stats.to_dict(include_perf=False),
                sorted(m.id for m in sim.active_messages),
            )
        assert runs["scan"] == runs["event"]


class TestDeadEndSelfDetection:
    @given(params_strategy)
    @SLOW
    def test_end_state_has_no_unmarked_wedged_messages(self, params):
        # After a full run (drain included), anything the fault-aware
        # oracle still classifies as deadlocked must carry a detection —
        # the cycle case via returning probes, the fault-wedged dead-end
        # case via launch-time self-detection.
        config = build_config(params)
        config.detector.probe_max_hops = 64
        config.detector.probe_max_outstanding = 64
        sim = Simulator(config)
        sim.run()
        final = find_deadlocked(sim.active_messages)
        for m in final:
            assert m.times_detected > 0
