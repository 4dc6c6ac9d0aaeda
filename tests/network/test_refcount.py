"""Guard: a finished network is freed by reference counting alone.

The simulator's object graph has no cycles: a lane names its occupant by
message id, a channel points at nothing, the waiter maps live on the
simulator by channel index, and detectors, recovery schemes and the fault
injector are handed the simulator per call instead of keeping it.  So
dropping the last reference to a simulator frees its whole network at
once, without waiting for a full collection.

Each case runs a wedged network (1 VC at load 0.8: at the default load
the waiter maps are often empty at the end and a cycle through them
slips through), drops it with the collector disabled, then collects with
``DEBUG_SAVEALL``: every ``repro`` object in ``gc.garbage`` sat on a
reference cycle.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Callable, Dict, List, Optional

import pytest

from repro.core.registry import detector_names
from repro.network.batch import BatchSimulator
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator

RECOVERIES = ("progressive", "progressive-reinject", "regressive", "none")

#: A link down, a stuck lane and a stalled router, each healing mid-run.
FAULTS = [
    {"kind": "link-down", "start": 20, "end": 120, "channel": 3},
    {"kind": "vc-stuck", "start": 40, "end": 160, "channel": 9, "lane": 0},
    {"kind": "router-stall", "start": 60, "end": 90, "node": 5},
]


def wedged(
    mechanism: str = "ndm",
    recovery: str = "none",
    faults: Optional[List[Dict[str, int]]] = None,
    selective_promotion: bool = False,
) -> SimulationConfig:
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=1,
        warmup_cycles=0,
        measure_cycles=250,
        seed=7,
        recovery=recovery,
        faults=faults,
    )
    config.traffic.injection_rate = 0.8
    config.detector = DetectorConfig(
        mechanism=mechanism,
        threshold=16,
        selective_promotion=selective_promotion,
    )
    return config


def cyclic_garbage(run: Callable[[], object]) -> Counter:
    """``repro`` objects, by type name, that only the cyclic collector
    frees once ``run``'s network is dropped."""
    gc.collect()
    gc.disable()
    try:
        run()  # the network is local to ``run``: gone when it returns
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(
            type(o).__name__
            for o in gc.garbage
            if type(o).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faults"])
@pytest.mark.parametrize("recovery", RECOVERIES)
@pytest.mark.parametrize("mechanism", detector_names())
def test_finished_simulator_is_freed_by_refcount(mechanism, recovery, faulted):
    config = wedged(mechanism, recovery, FAULTS if faulted else None)
    assert cyclic_garbage(lambda: Simulator(config).run()) == Counter()


def test_selective_promotion_is_freed_by_refcount():
    config = wedged(selective_promotion=True)
    assert cyclic_garbage(lambda: Simulator(config).run()) == Counter()


def test_batch_group_is_freed_by_refcount():
    """Every mechanism, plus a selective-promotion ndm unit, on one fold;
    ndm-precise turns parking off, so the group is also run without it."""
    cells = [
        DetectorConfig(mechanism=mechanism, threshold=threshold)
        for mechanism in detector_names()
        for threshold in (8, 32)
    ] + [DetectorConfig(mechanism="ndm", threshold=16, selective_promotion=True)]
    config = wedged()
    for group in (cells, [c for c in cells if c.mechanism != "ndm-precise"]):
        assert cyclic_garbage(lambda: BatchSimulator(config, group).run()) == Counter()
