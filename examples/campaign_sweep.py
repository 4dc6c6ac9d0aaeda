#!/usr/bin/env python3
"""Campaign engine walkthrough: parallel, cached, resumable table runs.

Runs a small threshold-by-load grid of NDM simulations three ways —
serial, on a two-process pool, and again against a warm on-disk cache —
then shows what a resumed campaign reuses.  The point to notice: every
variant prints the *same table, byte for byte*, because jobs carry fully
resolved configs (content-hashed) and the engine reassembles results in
canonical cell order.

Run:  python examples/campaign_sweep.py
"""

import tempfile
import time
from pathlib import Path

from repro.campaign import (
    CampaignCheckpoint,
    ResultCache,
    render_summary,
    summarize_manifest,
)
from repro.experiments.report import render_table
from repro.experiments.runner import run_table
from repro.experiments.spec import TableSpec, base_config


def small_table() -> TableSpec:
    """A 3-threshold x 2-load slice of Table 2's grid (NDM, uniform)."""
    return TableSpec(
        table_id=2,
        title="NDM, uniform traffic [example slice]",
        mechanism="ndm",
        pattern="uniform",
        sizes=("s",),
        load_fractions=(0.857, 1.0),
        paper_rates=(0.514, 0.600),
        thresholds=(8, 32, 128),
        saturated_loads=(1,),
    )


def small_base():
    base = base_config(full=False)
    base.radix = 4  # 16 nodes keeps the example quick
    base.warmup_cycles = 200
    base.measure_cycles = 1000
    return base


def timed(label, **kwargs):
    start = time.perf_counter()
    result = run_table(small_table(), small_base(), saturation=0.45, **kwargs)
    print(f"{label}: {time.perf_counter() - start:.2f}s")
    return result


def main() -> None:
    serial = timed("serial run      (--jobs 1)")
    pooled = timed("process pool    (--jobs 2)", jobs=2)
    assert render_table(pooled) == render_table(serial)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        manifest = Path(tmp) / "manifest.jsonl"
        checkpoint = CampaignCheckpoint(manifest)

        cold = timed("cold cache      (populates) ", jobs=2,
                     cache=cache, checkpoint=checkpoint)
        warm_cache = ResultCache(tmp)
        warm = timed("warm cache      (100% hits) ", jobs=2,
                     cache=warm_cache, checkpoint=checkpoint)
        print(f"  second run served {warm_cache.hits}/{warm_cache.hits + warm_cache.misses} "
              "cells from the cache")
        assert render_table(cold) == render_table(serial)
        assert render_table(warm) == render_table(serial)

        # A resumed campaign replays the manifest instead of simulating.
        resumed = timed("resumed         (manifest)  ",
                        checkpoint=CampaignCheckpoint(manifest), resume=True)
        assert render_table(resumed) == render_table(serial)

        print("\ncampaign summary " + "-" * 43)
        print(render_summary(summarize_manifest(manifest)))

    print("\n" + render_table(serial))
    print("\nall four runs produced this table byte-identically")


if __name__ == "__main__":
    main()
