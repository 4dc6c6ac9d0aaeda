"""Bit-identical equivalence of the event-driven and reference engines.

The event engine (``engine="event"``) parks blocked headers and frozen
worms between wakeup events instead of re-scanning them every cycle.
These tests are the gate for that optimization: for every detector,
recovery scheme and load regime below, a run under each engine must
produce *byte-identical* simulated behaviour — every stats counter
(``to_dict(include_perf=False)``; engine telemetry legitimately differs),
every traced event in order (including detection cycles), and the same
final message population.

The corpus has to *bite*: a case on which no header ever blocks never
calls ``blocked_deadline``, never parks and never detects, so it cannot
tell a sound detector from an unsound one.  Every case therefore asserts
its own activity after the run (:func:`assert_active`), and two seeded
impure detectors at the bottom must fail :func:`assert_equivalent`.
"""

from __future__ import annotations

import pytest

from repro.core.pdm import PreviousDetectionMechanism
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.tracing import Tracer
from tests.integration.test_golden import digest_of


def _config(**overrides) -> SimulationConfig:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        warmup_cycles=100,
        measure_cycles=300,
        seed=20,
        # With the injection limitation on and 3 VCs, 16 nodes never
        # block a header at any offered load; without it they wedge,
        # detect and recover a hundred times or more in these 400 cycles.
        injection_limit_fraction=None,
    )
    config.traffic.injection_rate = 2.0
    for key, value in overrides.items():
        if key == "mechanism":
            config.detector.mechanism = value
        elif key == "threshold":
            config.detector.threshold = value
        elif key == "selective_promotion":
            config.detector.selective_promotion = value
        elif key == "injection_rate":
            config.traffic.injection_rate = value
        elif key == "lengths":
            config.traffic.lengths = value
        else:
            setattr(config, key, value)
    return config


def _run(config: SimulationConfig, engine: str, detector_class=None):
    """One traced run; ``detector_class`` replaces the configured
    mechanism's class (built at the configured threshold)."""
    detector = detector_class and detector_class(config.detector.threshold)
    sim = Simulator(config.replace(engine=engine), detector=detector)
    sim.tracer = Tracer(capacity=0)  # unbounded: every event, in order
    stats = sim.run()
    return sim, stats


def assert_equivalent(config: SimulationConfig, detector_class=None):
    """Scan == event on ``config``; returns the event run's stats."""
    sim_scan, stats_scan = _run(config, "scan", detector_class)
    sim_event, stats_event = _run(config, "event", detector_class)
    # Full behavioural stats, detection events included.
    assert stats_scan.to_dict(include_perf=False) == stats_event.to_dict(
        include_perf=False
    )
    # Full event streams, in order: inject/route/block/deliver/detect/recover.
    assert list(sim_scan.tracer.events) == list(sim_event.tracer.events)
    # Same in-flight population at the end (same ids, same order).
    assert [m.id for m in sim_scan.active_messages] == [
        m.id for m in sim_event.active_messages
    ]
    assert [m.id for m in sim_scan.pending_route] == [
        m.id for m in sim_event.pending_route
    ]
    sim_event.check_invariants()
    return stats_event


def assert_active(config: SimulationConfig, stats) -> None:
    """The run did what its configuration promises: headers and worms
    parked, the mechanism detected, and the recovery scheme acted."""
    counters = stats.engine_counters
    assert counters["route_parks"] > 0
    assert counters["move_parks"] > 0
    if config.detector.mechanism == "none":
        assert stats.detections == 0
    elif config.recovery == "none":
        assert stats.recoveries == stats.aborts == 0 < stats.detections
    elif config.recovery == "regressive":
        assert stats.aborts > 0
    else:
        assert stats.recoveries > 0


CASES = {
    "ndm": dict(mechanism="ndm", threshold=16),
    "ndm-selective": dict(
        mechanism="ndm", threshold=16, selective_promotion=True
    ),
    "ndm-low-vc": dict(mechanism="ndm", threshold=16, vcs_per_channel=1),
    # The per-input-port crossbar: both engines share the movement loop,
    # so only the pin below says the limit constrains anything.
    "input-limit": dict(
        mechanism="ndm", threshold=16, vcs_per_channel=3,
        crossbar_input_limit=True,
    ),
    "pdm": dict(mechanism="pdm", threshold=16),
    "timeout": dict(mechanism="timeout", threshold=24),
    "hybrid": dict(mechanism="hybrid", threshold=8),
    "source-age": dict(mechanism="source-age", threshold=200),
    "none": dict(mechanism="none"),
    "recovery-reinject": dict(
        mechanism="ndm", threshold=16, recovery="progressive-reinject"
    ),
    "recovery-regressive": dict(
        mechanism="ndm", threshold=16, recovery="regressive"
    ),
    "recovery-none": dict(mechanism="ndm", threshold=16, recovery="none"),
    "drain": dict(mechanism="ndm", threshold=16, drain_cycles=400),
    "long-messages": dict(mechanism="ndm", threshold=48, lengths="l"),
    "mesh": dict(mechanism="ndm", threshold=16, topology="mesh"),
    # The two routing functions the paper's tables never run.
    "dimension-order-mesh": dict(
        mechanism="ndm", threshold=16, topology="mesh",
        routing="dimension-order",
    ),
    "duato-torus": dict(mechanism="none", routing="duato-adaptive"),
    # A stuck adaptive lane parks a header on a channel nobody occupies
    # (its only allowed lane there is stuck); when another worm takes the
    # escape lane, the channel's counter resumes, and only the
    # ``_allocate`` wake lets the parked header's detection deadline run.
    "duato-stuck-lane": dict(
        mechanism="pdm", threshold=16, routing="duato-adaptive",
        vcs_per_channel=2,
        faults=[
            {"kind": "vc-stuck", "start": 0, "end": 400, "channel": ch, "lane": 1}
            for ch in range(0, 64, 4)
        ],
    ),
}

#: case -> (delivered, sha256 of the traced event stream[, the event
#: engine's work counters]).  The engines agreeing with each other does
#: not pin *what* they route or move — they share that code: offering
#: ``dimension-order`` every unfinished dimension, or never stamping
#: ``last_drain_cycle`` under ``crossbar_input_limit``, passes every
#: other test.  After an intended model change, re-record from the
#: assertion message.
PINNED = {
    "dimension-order-mesh": (
        579,
        "1e5c007a13c8fd29ce1804484e0f375fced335cb982beb6a1986d2819bc18482",
    ),
    "duato-torus": (
        416,
        "a4998918ef82ef49e795dbc159f31a4584dc040db222b47cff9e70f503bb5138",
    ),
    "input-limit": (
        528,
        "b922c441f90c85b0e61ec73d7fc3bade8acab9df56ccba13abf98d0d572f1174",
        {
            "route_attempts": 13798,
            "route_parked_skips": 27550,
            "route_parks": 12019,
            "move_visits": 27147,
            "move_parked_skips": 32754,
            "move_parks": 883,
            "deadline_wakeups": 6884,
        },
    ),
    "ndm": (
        573,
        "0b215158cc9981e2133042d26d128156c446b117d4565729b61fdc1ca6199695",
        {
            "route_attempts": 12937,
            "route_parked_skips": 26610,
            "route_parks": 10991,
            "move_visits": 27911,
            "move_parked_skips": 30435,
            "move_parks": 900,
            "deadline_wakeups": 6066,
        },
    ),
    "long-messages": (
        95,
        "92e6e48a969b85af079eb9580832bc7f712740ede4bca5b45b7b75bda0f262f1",
        {
            "route_attempts": 1482,
            "route_parked_skips": 11445,
            "route_parks": 955,
            "move_visits": 24082,
            "move_parked_skips": 10613,
            "move_parks": 173,
            "deadline_wakeups": 416,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engines_bit_identical(case):
    config = _config(**CASES[case])
    assert_active(config, assert_equivalent(config))


@pytest.mark.parametrize("case", sorted(PINNED))
def test_routing_function_run_is_pinned(case):
    """Named for its first two cases; every ``PINNED`` run is held to it."""
    sim, stats = _run(_config(**CASES[case]), "event")
    run = (stats.delivered, digest_of(sim), dict(stats.engine_counters))
    run = run[: len(PINNED[case])]
    assert run == PINNED[case], f"if intended, re-record {case!r} as {run!r}"


def test_engines_bit_identical_saturated_torus():
    """Heavier 64-node beyond-saturation run, the benchmark's regime."""
    config = _config(
        radix=8,
        mechanism="ndm",
        threshold=32,
        injection_rate=1.0,
        injection_limit_fraction=0.4,  # the paper's default
        warmup_cycles=100,
        measure_cycles=400,
    )
    assert_equivalent(config)


def test_engines_bit_identical_saturated_16x16():
    """256-node version of the saturated regime (benchmark's 16x16 case).

    Catches equivalence bugs in costs that scale with network size —
    channel tables, mask tables, router fan-out — rather than with the
    active-message population.
    """
    config = _config(
        radix=16,
        mechanism="ndm",
        threshold=32,
        vcs_per_channel=2,
        injection_rate=0.8,
        injection_limit_fraction=0.4,  # the paper's default
        recovery="none",
        warmup_cycles=0,
        measure_cycles=200,
    )
    assert_equivalent(config)


def test_engines_bit_identical_flowing_progressive_recovery():
    """Healthy traffic plus progressive recovery (the harness's flowing
    regime): deadlocks form, recover in place, and traffic keeps moving,
    so park/wake churn interleaves with real flit work."""
    config = _config(
        radix=8,
        mechanism="ndm",
        threshold=16,
        vcs_per_channel=3,
        injection_rate=0.5,
        recovery="progressive",
        warmup_cycles=100,
        measure_cycles=600,
    )
    assert_equivalent(config)


def test_precise_ndm_never_parks():
    """ndm-precise records per-attempt witnesses, so the event engine
    must keep re-attempting blocked headers (can_sleep_blocked=False)."""
    config = _config(mechanism="ndm-precise", threshold=16)
    sim, _ = _run(config, "event")
    assert sim.stats.engine_counters["route_parks"] == 0
    assert_equivalent(config)


def test_event_engine_actually_parks():
    """Guard against the fast path silently degrading to a full scan."""
    config = _config(
        mechanism="ndm", threshold=16, vcs_per_channel=1, injection_rate=0.6
    )
    _, stats = _run(config, "event")
    assert stats.engine_counters["route_parks"] > 0
    assert stats.engine_counters["route_parked_skips"] > 0
    assert stats.engine_counters["move_parks"] > 0
    assert stats.engine_counters["move_parked_skips"] > 0


def test_scan_engine_never_parks():
    config = _config(mechanism="ndm", threshold=16)
    _, stats = _run(config, "scan")
    assert stats.engine_counters["route_parks"] == 0
    assert stats.engine_counters["route_parked_skips"] == 0
    assert stats.engine_counters["move_parks"] == 0
    assert stats.engine_counters["move_parked_skips"] == 0


def test_perf_fields_excluded_from_comparison_form():
    config = _config(mechanism="ndm", threshold=16)
    _, stats = _run(config, "event")
    lean = stats.to_dict(include_perf=False)
    assert "engine" not in lean
    assert "phase_time" not in lean
    assert "engine_counters" not in lean
    full = stats.to_dict()
    assert full["engine"] == "event"
    assert set(full["phase_time"]) == {
        "checks",
        "probes",
        "routing",
        "movement",
        "injection",
        "generation",
    }


def test_engine_validated():
    config = _config()
    config.engine = "warp"
    with pytest.raises(ValueError, match="engine"):
        config.validate()


# ----------------------------------------------------------------------
# Self-test of the guard: an impure ``blocked_deadline`` must be caught
# ----------------------------------------------------------------------
class _RngDeadline(PreviousDetectionMechanism):
    """Draws from the simulator's RNG while computing a deadline: only
    the event engine asks for deadlines, so its traffic stream shifts."""

    def attach(self, sim):
        super().attach(sim)
        self.rng = sim.rng

    def blocked_deadline(self, message, cycle):
        self.rng.random()
        return super().blocked_deadline(message, cycle)


class _CountingDeadline(PreviousDetectionMechanism):
    """Mutates private state in ``blocked_deadline`` that the detection
    predicate reads: detection stops after the first parked header."""

    def __init__(self, threshold):
        super().__init__(threshold)
        self._deadlines = 0

    def blocked_deadline(self, message, cycle):
        self._deadlines += 1
        return super().blocked_deadline(message, cycle)

    def on_blocked_attempt(self, sim, message, cycle, first_attempt):
        return self._deadlines == 0 and super().on_blocked_attempt(
            sim, message, cycle, first_attempt
        )


@pytest.mark.parametrize("impure", [_RngDeadline, _CountingDeadline])
def test_impure_blocked_deadline_breaks_equivalence(impure):
    with pytest.raises(AssertionError):
        assert_equivalent(_config(**CASES["pdm"]), impure)
