"""Wedge-then-heal drain regression.

The latent bug class this pins down: a run whose network is wedged by a
fault when measurement ends must still terminate once the fault heals
mid-drain.  The failure mode is engine-specific — the event engine parks
blocked headers and frozen worms with a proof they cannot act, and a
heal edge invalidates that proof from the *outside* (no VC release, no
counter resume, no promotion fires).  Without the injector's
``wake_all_parked`` on every fault edge, the parked worms sleep through
the heal and the drain loop spins to its cycle cap with flits stranded.

The schedule downs four links for the whole measurement window and the
first 200 drain cycles; traffic piles up behind them, then the heal
releases it.  Recovery is off, so the *only* way the network empties is
fault-blocked worms resuming on their own.
"""

from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus

HEAL_CYCLE = 400
DRAIN_LIMIT = 3000

FAULTS = [
    {"kind": "link-down", "start": 20, "end": HEAL_CYCLE, "channel": ch}
    for ch in (0, 5, 11, 17)
]


def build_config(engine: str) -> SimulationConfig:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=2,
        warmup_cycles=0,
        measure_cycles=200,
        drain_cycles=DRAIN_LIMIT,
        seed=5,
        engine=engine,
        ground_truth_interval=0,
        recovery="none",
        faults=[dict(f) for f in FAULTS],
    )
    config.traffic.injection_rate = 0.25
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    return config


def test_network_is_actually_wedged_mid_drain():
    """Sanity: without this, the regression test would assert nothing."""
    sim = Simulator(build_config("event"))
    while sim.cycle < HEAL_CYCLE - 10:
        sim.step()
    stuck = [
        m
        for m in sim.active_messages
        if m.status is MessageStatus.IN_NETWORK
    ]
    assert len(stuck) >= 5


def test_heal_drains_fully_on_both_engines():
    runs = {}
    for engine in ("scan", "event"):
        sim = Simulator(build_config(engine))
        stats = sim.run()
        assert not sim.active_messages
        assert stats.delivered == stats.injected
        # Termination must come from the heal, not the drain cycle cap.
        assert HEAL_CYCLE < stats.cycles_run < HEAL_CYCLE + 300
        runs[engine] = stats.to_dict(include_perf=False)
    assert runs["scan"] == runs["event"]


def test_event_engine_invariants_through_the_heal():
    sim = Simulator(build_config("event"))
    while sim.active_messages or sim.cycle < HEAL_CYCLE + 1:
        # The drain, as ``run()`` enters it: no new traffic after the
        # measurement window, so the network can empty.
        sim.generation_enabled = sim.cycle < sim.config.measure_cycles
        sim.step()
        if sim.cycle % 10 == 0 or HEAL_CYCLE - 2 <= sim.cycle <= HEAL_CYCLE + 5:
            sim.check_invariants()
        assert sim.cycle < 200 + DRAIN_LIMIT
