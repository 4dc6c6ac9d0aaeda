"""Guard on how much source-side work the batch fold does.

The source-side families (``source-age``, ``injection-stall``) are
checked in the checks phase.  The fold sweeps a message only once its
``deadline`` at the lowest pending rung has come, so each rule's
``score`` runs a few times per message injected.  Scanning every
in-flight message every cycle instead costs about cycles x in-flight
calls: on the wedge below, 261 calls per message injected.  This bound
catches that scan coming back.
"""

from __future__ import annotations

from repro.core.timeout import InjectionStallTimeout, SourceAgeTimeout
from repro.network.batch import BatchSimulator
from repro.network.config import DetectorConfig, SimulationConfig

#: Score calls per rule allowed per message injected (1.4 today).
MAX_CALLS_PER_MESSAGE = 4


def _counted(monkeypatch, cls, calls):
    score = cls.score

    def counting(message, cycle):
        calls[cls.name] += 1
        return score(message, cycle)

    monkeypatch.setattr(cls, "score", staticmethod(counting))


def test_fold_scores_source_side_rules_per_message_not_per_cycle(monkeypatch):
    calls = {"source-age": 0, "injection-stall": 0}
    # Before the observer is built: ``_Family`` captures ``cls.score``.
    _counted(monkeypatch, SourceAgeTimeout, calls)
    _counted(monkeypatch, InjectionStallTimeout, calls)
    config = SimulationConfig(
        radix=8, dimensions=2, vcs_per_channel=1, warmup_cycles=0,
        measure_cycles=1000, seed=7, recovery="none", ground_truth_interval=0,
    )
    config.traffic.injection_rate = 0.6
    cells = [
        DetectorConfig(mechanism="source-age", threshold=t)
        for t in (256, 512, 1024, 2048)
    ] + [
        DetectorConfig(mechanism="injection-stall", threshold=t)
        for t in (128, 256, 512, 1024)
    ]
    folded = BatchSimulator(config, cells).run()
    injected = folded[0].injected
    # Not vacuous: the network wedges and both families detect.
    assert folded[0].detections > 0 and folded[4].detections > 0
    for name, n in calls.items():
        assert 0 < n <= MAX_CALLS_PER_MESSAGE * injected, (
            f"{name}: {n} score calls for {injected} messages injected"
        )
