"""High-level campaign engine: tables in, tables out.

``run_campaign`` plans every table first — it enumerates each spec into
jobs and opens its manifest header — then resolves the union of their
cells in **one** :func:`execute_jobs` call, and finally reassembles each
``TableResult`` with :func:`assemble_table` in canonical cell order.  One
call means one cache/manifest pass, one grouping pass over every miss (so
the same traffic point of two tables shares a trajectory) and one
longest-first process pool across tables.  The rendered tables (and
their JSON dumps) are byte-identical however the cells ran.

:func:`repro.experiments.runner.run_table` is the one-spec case.  Both
read ``enumerate_table_jobs``, ``execute_jobs`` and ``assemble_table``
from this module at call time, so patching them here reaches every path.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.executor import JobOutcome, ProgressFn, execute_jobs
from repro.campaign.jobs import CellJob, enumerate_table_jobs, job_key
from repro.experiments.runner import TableResult, saturation_rate
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
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict[int, TableResult]:
    """Run several tables as one campaign: plan all, resolve once, assemble.

    Args:
        specs: the table specs to run, in order.
        base: base simulation config shared by every table.
        saturations: optional pattern -> saturation-rate overrides;
            other patterns use their calibrated rate.
        jobs: worker processes; ``None`` means one per CPU, ``1`` runs
            every cell serially in-process.
        cache: optional :class:`repro.campaign.ResultCache`.
        checkpoint: optional :class:`repro.campaign.CampaignCheckpoint`;
            it gets one header per table, then one line per cell.
        resume: reuse finished cells from the checkpoint manifest.
        progress: optional ``progress(done, total)`` over the whole
            campaign's cells.
    """
    planned: List[Tuple[TableSpec, Tuple[float, ...]]] = []
    cell_jobs: List[CellJob] = []
    # One manifest handle for the headers and every cell line.
    with checkpoint.appending() if checkpoint is not None else nullcontext():
        for spec in specs:
            saturation = (saturations or {}).get(spec.pattern)
            if saturation is None:
                saturation = saturation_rate(base, spec)
            rates, table_jobs = enumerate_table_jobs(spec, base, saturation)
            if checkpoint is not None:
                checkpoint.start(spec.table_id, total=len(table_jobs))
            planned.append((spec, rates))
            cell_jobs += table_jobs
        outcomes = execute_jobs(
            cell_jobs,
            num_workers=jobs,
            cache=cache,
            checkpoint=checkpoint,
            resume=resume,
            progress=progress,
        )
    return {
        spec.table_id: assemble_table(spec, rates, outcomes)
        for spec, rates in planned
    }
