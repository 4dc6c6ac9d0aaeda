"""High-level campaign engine: tables in, tables out.

:func:`repro.experiments.runner.run_table` runs one table: it enumerates
the spec into jobs, resolves them through the executor, and reassembles
the ``TableResult`` with :func:`assemble_table` in canonical cell order —
so the rendered table (and its JSON dump) is byte-identical however the
cells ran.  It reads those three functions from this module at call time.

``run_campaign`` strings several tables into one campaign sharing a
cache and a manifest.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.executor import JobOutcome, ProgressFn, execute_jobs
from repro.campaign.jobs import enumerate_table_jobs, job_key
from repro.experiments.runner import TableResult, run_table
from repro.experiments.spec import TableSpec
from repro.network.config import SimulationConfig

__all__ = ["assemble_table", "enumerate_table_jobs", "execute_jobs", "run_campaign"]


def assemble_table(
    spec: TableSpec,
    rates: Sequence[float],
    outcomes: Dict[str, JobOutcome],
) -> TableResult:
    """Rebuild a ``TableResult`` from keyed outcomes, canonical order.

    Iterates ``spec.cell_coords()`` — the order the job enumerator
    uses — so dict insertion order, rendering and JSON dumps do not
    depend on which worker finished first.
    """
    result = TableResult(spec=spec, rates=tuple(rates))
    for threshold, load_index, size in spec.cell_coords():
        key = job_key(spec.table_id, threshold, load_index, size)
        row = result.cells.setdefault(threshold, {})
        row[(load_index, size)] = outcomes[key].cell
    return result


def run_campaign(
    specs: Iterable[TableSpec],
    base: SimulationConfig,
    saturations: Optional[Dict[str, float]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    resume: bool = False,
    progress_factory: Optional[
        Callable[[TableSpec], Optional[ProgressFn]]
    ] = None,
) -> Dict[int, TableResult]:
    """Run several tables as one campaign with shared cache/manifest.

    Args:
        specs: the table specs to run, in order.
        base: base simulation config shared by every table.
        saturations: optional pattern -> saturation-rate overrides.
        jobs, cache, checkpoint, resume: as for ``run_table``.
        progress_factory: optional ``factory(spec) -> progress`` hook so
            callers can label per-table progress lines.
    """
    results: Dict[int, TableResult] = {}
    for spec in specs:
        saturation = None
        if saturations and spec.pattern in saturations:
            saturation = saturations[spec.pattern]
        progress = progress_factory(spec) if progress_factory else None
        results[spec.table_id] = run_table(
            spec,
            base,
            saturation=saturation,
            progress=progress,
            jobs=jobs,
            cache=cache,
            checkpoint=checkpoint,
            resume=resume,
        )
    return results
