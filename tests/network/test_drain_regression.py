"""Regression tests: the drain loop must wait for recovery traffic.

Before the fix, ``Simulator.run()`` kept draining only while
``active_messages`` or a source queue was non-empty.  Messages sitting in
the recovery-lane delivery heap (``_recovery_deliveries``) or in the
recovery re-injection queues (``recovery_queues``) were invisible to that
condition, so a run whose last in-flight messages were mid-recovery at
drain time exited early and silently dropped them (missing deliveries,
violating message conservation).  Both tests below fail against the old
condition and pass with the fixed one.
"""

from __future__ import annotations

from tests.conftest import small_config

from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus


def _idle_config(drain_cycles: int):
    """No traffic at all: warmup 0, one measured cycle, then drain."""
    config = small_config(
        warmup_cycles=0, measure_cycles=1, drain_cycles=drain_cycles
    )
    config.traffic.injection_rate = 0.0
    return config


def test_drain_waits_for_recovery_lane_deliveries():
    sim = Simulator(_idle_config(drain_cycles=50))
    m = Message(0, 0, 3, 4, 0)
    # As ProgressiveRecovery does: worm torn down, message in the node's
    # software buffer until the recovery lane finishes at ready_cycle.
    sim.schedule_recovery_delivery(m, ready_cycle=10)
    stats = sim.run()
    assert m.status is MessageStatus.DELIVERED
    assert stats.delivered == 1
    # The run must actually have kept stepping past the measurement end.
    assert stats.cycles_run >= 10


def test_drain_waits_for_recovery_reinjection_queues():
    """A worm absorbed for re-injection just as the network empties.

    ``ProgressiveReinjection`` queues the absorbed worm during the checks
    phase; re-injection happens in the *injection* phase of a later cycle.
    If the last in-flight message delivers in between, the old drain
    condition saw an empty network and exited with the worm still queued.
    The subclass below reproduces that window deterministically: it
    enqueues the recovery message at the end of the step in which the
    network drains.
    """
    config = _idle_config(drain_cycles=200)
    boundary = config.warmup_cycles + config.measure_cycles
    m2 = Message(1, 0, 3, 4, 0)

    class _AbsorbAtDrain(Simulator):
        seeded = False

        def step(self):
            super().step()
            if (
                not self.seeded
                and self.cycle > boundary
                and not self.active_messages
            ):
                self.seeded = True
                m2.reset_for_reinjection(0, self.cycle)
                self.enqueue_recovery(m2, 0)

    sim = _AbsorbAtDrain(config)
    # One ordinary message keeps the drain loop alive until it delivers.
    m1 = Message(0, 0, 5, 4, 0)
    sim.source_queues[0].append(m1)
    stats = sim.run()
    assert sim.seeded
    assert m1.status is MessageStatus.DELIVERED
    assert m2.status is MessageStatus.DELIVERED
    assert stats.delivered == 2


def test_drain_still_terminates_when_truly_empty():
    sim = Simulator(_idle_config(drain_cycles=500))
    stats = sim.run()
    # Nothing in flight anywhere: the drain loop must exit immediately.
    assert stats.cycles_run == 1
    assert stats.delivered == 0
