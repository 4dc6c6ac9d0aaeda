"""Entry points for regenerating the paper's tables.

``regenerate_table(n)`` runs the whole grid for Table *n* and returns the
result; by default the quick grid on the 64-node configuration, or the
paper-scale grid when ``full=True`` (or ``REPRO_FULL=1``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.experiments.report import render_table, table_to_json
from repro.experiments.runner import TableResult, run_table
from repro.experiments.spec import (
    DEFAULT_SEED,
    TABLE_SPECS,
    TableSpec,
    base_config,
    full_mode,
    quick_spec,
)


def table_spec(table_id: int, full: Optional[bool] = None) -> TableSpec:
    """The (quick or full) spec for one paper table."""
    if table_id not in TABLE_SPECS:
        choices = ", ".join(str(t) for t in sorted(TABLE_SPECS))
        raise ValueError(f"no such table: {table_id}; choose one of {choices}")
    spec = TABLE_SPECS[table_id]
    if full is None:
        full = full_mode()
    return spec if full else quick_spec(spec)


def regenerate_table(
    table_id: int,
    full: Optional[bool] = None,
    seed: int = DEFAULT_SEED,
    saturation: Optional[float] = None,
    progress=None,
    *,
    jobs: int = 1,
    cache=None,
    checkpoint=None,
    resume: bool = False,
) -> TableResult:
    """Run every cell of one paper table and return the result grid.

    ``jobs``/``cache``/``checkpoint``/``resume`` are forwarded to the
    campaign engine (see :func:`repro.experiments.runner.run_table`);
    the defaults reproduce the sequential single-process behaviour.
    """
    spec = table_spec(table_id, full)
    base = base_config(full)
    base.seed = seed
    return run_table(
        spec,
        base,
        saturation=saturation,
        progress=progress,
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )


def regenerate_all(
    table_ids: Iterable[int] = range(1, 8),
    full: Optional[bool] = None,
    seed: int = DEFAULT_SEED,
    *,
    jobs: int = 1,
    cache=None,
    checkpoint=None,
    resume: bool = False,
) -> Dict[int, TableResult]:
    """Regenerate several tables (the paper's seven by default).

    Table 8 — the probe-detector extension grid — is not in the default
    set; include it explicitly via ``table_ids``.

    When a cache or checkpoint is supplied, every table shares it — one
    campaign — so overlapping grids reuse each other's cells.
    """
    return {
        tid: regenerate_table(
            tid,
            full=full,
            seed=seed,
            jobs=jobs,
            cache=cache,
            checkpoint=checkpoint,
            resume=resume,
        )
        for tid in table_ids
    }


def save_result(result: TableResult, out_dir: str = "results") -> Path:
    """Write the rendered table and its JSON dump under ``out_dir``."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    stem = f"table{result.spec.table_id}"
    (path / f"{stem}.txt").write_text(render_table(result) + "\n")
    (path / f"{stem}.json").write_text(table_to_json(result) + "\n")
    return path / f"{stem}.txt"


def default_out_dir() -> str:
    return os.environ.get("REPRO_RESULTS_DIR", "results")
