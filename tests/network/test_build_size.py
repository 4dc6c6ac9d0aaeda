"""Guard on what one simulator build leaves for the garbage collector.

A finished network is cyclic garbage (each lane points at its channel and
back), so every object a build allocates is walked and freed by a full
collection.  Per-channel eager tables used to make that about 16 tracked
objects per channel; the lanes-by-mask table is now shared per width.
This bound catches a per-channel table coming back unnoticed.
"""

from __future__ import annotations

import gc

from repro.experiments.spec import base_config
from repro.network.simulator import Simulator

#: Tracked objects one build may leave per channel (7.2 today).
MAX_OBJECTS_PER_CHANNEL = 8


def test_build_leaves_few_tracked_objects_per_channel():
    config = base_config(full=False)
    Simulator(config)  # fill the per-width and per-shape caches first
    gc.collect()
    before = len(gc.get_objects())
    sim = Simulator(config)
    built = len(gc.get_objects()) - before
    assert built <= MAX_OBJECTS_PER_CHANNEL * len(sim.channels), (
        f"{built} tracked objects for {len(sim.channels)} channels"
    )
