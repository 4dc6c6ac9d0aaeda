"""High-level campaign engine: tables in, tables out.

``run_table_campaign`` is the parallel/cached/resumable drop-in for the
sequential ``run_table``: it enumerates the spec into jobs, resolves
them through the executor, and reassembles the ``TableResult`` in
canonical cell order — so the rendered table (and its JSON dump) is
byte-identical to a sequential run of the same spec and seed.

``run_campaign`` strings several tables into one campaign sharing a
cache and a manifest.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.executor import JobOutcome, ProgressFn, execute_jobs
from repro.campaign.jobs import enumerate_table_jobs, job_key
from repro.experiments.runner import TableResult, saturation_rate
from repro.experiments.spec import TableSpec
from repro.network.config import SimulationConfig


def run_table_campaign(
    spec: TableSpec,
    base: SimulationConfig,
    saturation: Optional[float] = None,
    num_workers: int = 1,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> TableResult:
    """Run one table as a campaign and reassemble its result grid.

    With the defaults (serial, no cache, no checkpoint) this computes
    exactly what the sequential runner computes, cell for cell; every
    keyword argument turns on one orthogonal engine feature.
    """
    if saturation is None:
        saturation = saturation_rate(base, spec)
    rates, jobs = enumerate_table_jobs(spec, base, saturation)
    if checkpoint is not None:
        checkpoint.start(spec.table_id, total=len(jobs))
    outcomes = execute_jobs(
        jobs,
        num_workers=num_workers,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
        progress=progress,
    )
    return assemble_table(spec, rates, outcomes)


def assemble_table(
    spec: TableSpec,
    rates: Sequence[float],
    outcomes: Dict[str, JobOutcome],
) -> TableResult:
    """Rebuild a ``TableResult`` from keyed outcomes, canonical order.

    Iterates ``spec.cell_coords()`` — the same order the sequential
    runner fills cells in — so dict insertion order, rendering and JSON
    dumps match the sequential path exactly.
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
    num_workers: int = 1,
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
        progress_factory: optional ``factory(spec) -> progress`` hook so
            callers can label per-table progress lines.
    """
    results: Dict[int, TableResult] = {}
    for spec in specs:
        saturation = None
        if saturations and spec.pattern in saturations:
            saturation = saturations[spec.pattern]
        progress = progress_factory(spec) if progress_factory else None
        results[spec.table_id] = run_table_campaign(
            spec,
            base,
            saturation=saturation,
            num_workers=num_workers,
            cache=cache,
            checkpoint=checkpoint,
            resume=resume,
            progress=progress,
        )
    return results
