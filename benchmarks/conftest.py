"""Shared infrastructure for the paper-shape suite.

Each paper table is regenerated once per pytest session (cached) and the
rendered table is printed and written under ``REPRO_RESULTS_DIR`` — a
pytest temp directory when unset, never the committed ``results/``
(those come from ``repro-experiments``).  Nothing here
is timed — the benchmark is ``benchmarks/spine``.  The suite runs
on the quick 64-node grid by default; set ``REPRO_FULL=1`` for the
paper-scale 512-node grid with the full threshold/load matrix (slow).
"""

from __future__ import annotations

import functools
import os
import sys

import pytest

from repro.experiments.report import render_comparison, render_table
from repro.experiments.tables import default_out_dir, regenerate_table, save_result


@pytest.fixture(scope="session", autouse=True)
def results_dir(tmp_path_factory):
    """Point ``default_out_dir()`` away from the working tree."""
    with pytest.MonkeyPatch.context() as patch:
        if "REPRO_RESULTS_DIR" not in os.environ:
            patch.setenv("REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield


@functools.lru_cache(maxsize=None)
def table_result(table_id: int, seed: int = 7):
    """Regenerate one table (cached for the whole benchmark session)."""
    result = regenerate_table(table_id, seed=seed)
    save_result(result, default_out_dir())
    text = render_table(result)
    print(f"\n{text}\n", file=sys.stderr)
    print(render_comparison(result), file=sys.stderr)
    return result


@pytest.fixture
def once():
    """Run an expensive test body (exactly once: it is just called)."""
    return lambda func: func()


# ----------------------------------------------------------------------
# Shared shape assertions (the reproduction criteria from DESIGN.md)
# ----------------------------------------------------------------------
def assert_detection_decays_with_threshold(result, slack: float = 1.0):
    """Within each column, detection percentage must trend down as the
    threshold grows (small jitter allowed: these are stochastic runs).

    Columns in which an actual deadlock occurred are skipped: a real
    deadlock freezes a growing region until the (large) threshold fires,
    which legitimately inflates high-threshold cells — the paper's own
    ``(*)`` columns show the same effect.
    """
    spec = result.spec
    thresholds = sorted(result.cells)
    for load_index in range(len(result.rates)):
        for size in spec.sizes:
            cells = [result.cell(t, load_index, size) for t in thresholds]
            if any(cell.had_true_deadlock for cell in cells):
                continue
            values = [cell.percentage for cell in cells]
            assert values[-1] <= values[0] + slack, (
                f"detection did not decay: load={load_index} size={size} "
                f"values={values}"
            )


def assert_saturation_detects_most(result, slack: float = 0.6):
    """The saturated load column dominates the below-saturation one at the
    lowest threshold."""
    spec = result.spec
    lowest = min(result.cells)
    for size in spec.sizes:
        low = result.cell(lowest, 0, size).percentage
        sat = result.cell(lowest, len(result.rates) - 1, size).percentage
        assert sat >= low - slack, (
            f"saturated load did not dominate: size={size} "
            f"low={low} sat={sat}"
        )


def assert_percentages_sane(result):
    for row in result.cells.values():
        for cell in row.values():
            assert 0.0 <= cell.percentage <= 100.0
            assert cell.injected > 0
            assert cell.throughput > 0.0
