"""Guard on how many tracked objects one simulator build allocates.

Every object a build allocates is walked by each collection that runs
while the network is alive (and, before the network lost its reference
cycles, by the full collection that freed it).  Per-channel eager tables
used to make that about 16 tracked objects per channel; the lanes-by-mask
table is now shared per width and the lanes live in one flat list.  This
bound catches a per-channel table coming back unnoticed.
"""

from __future__ import annotations

import gc

from repro.experiments.spec import base_config
from repro.network.simulator import Simulator

#: Tracked objects one build may leave per channel (5.6 today).
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
