"""Parallel execution of campaign jobs.

``execute_jobs`` resolves every :class:`~repro.campaign.jobs.CellJob`
through three layers, cheapest first:

1. **resume** — a finished record in the campaign manifest
   (:class:`~repro.campaign.checkpoint.CampaignCheckpoint`) with a
   matching config hash;
2. **cache** — the content-addressed on-disk store
   (:class:`~repro.campaign.cache.ResultCache`);
3. **run** — a live simulation, either in-process (``num_workers=1``,
   the deterministic serial fallback used by tests) or fanned out over a
   ``ProcessPoolExecutor``.  Cache-miss cells that are
   ``batch_eligible`` (no recovery, no faults, a pure-observer
   detector, not the ``"scan"`` reference) and equal modulo their
   detector cell — mechanism, threshold, probe caps — are grouped into
   one shared-trajectory run each (see ``repro.network.batch``) — the
   results stay bit-identical to per-cell runs while the grid costs one
   simulation per group.  Grouping is a pure optimization: fold results
   do not depend on the partition, so ``--resume`` re-grouping after a
   partial run reproduces the same per-cell records byte for byte.

Cells run out of order under the pool, but results are keyed, so callers
reassemble tables in canonical order and the output is bit-identical to
the sequential path.  Workers ship lean ``SimulationStats`` dicts back
(:meth:`~repro.metrics.stats.SimulationStats.to_dict` without the event
log) and the parent derives the ``CellResult``, so both paths share one
serialization round-trip.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.jobs import CellJob, cell_from_dict, cell_to_dict
from repro.experiments.runner import CellResult, cell_from_stats
from repro.metrics.stats import SimulationStats
from repro.network import batch as batch_backend
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class JobOutcome:
    """One resolved cell: the result plus execution telemetry."""

    job: CellJob
    cell: CellResult
    #: Wall-clock seconds the simulation took (0 when served from disk).
    wall_time: float
    #: ``"serial"``, ``"pid<n>"``, ``"cache"`` or ``"manifest"``.
    worker: str
    #: ``"run"``, ``"cache"`` or ``"resume"``.
    source: str
    #: How the cell ran: ``"batch"`` on a shared trajectory, else its
    #: config's engine ("" for pre-engine records).
    engine: str = ""
    #: Wall seconds per simulator phase (empty for pre-engine records).
    phase_time: Dict[str, float] = field(default_factory=dict)


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell from its plain-dict payload.

    Top-level (picklable) and dict-in/dict-out so the same function
    backs the serial fallback and the process pool.
    """
    start = time.perf_counter()
    config = SimulationConfig.from_dict(payload["config"])
    stats = Simulator(config).run()
    return {
        "key": payload["key"],
        "stats": stats.to_dict(include_events=False),
        "wall_time": time.perf_counter() - start,
        "worker": f"pid{os.getpid()}",
    }


def _execute_batch_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point for one batch group (many cells, one run).

    The cells — mixed mechanisms and thresholds — share a single
    trajectory (see ``repro.network.batch``); the returned stats list
    aligns with ``payload["keys"]``.
    """
    start = time.perf_counter()
    config = SimulationConfig.from_dict(payload["config"])
    cells = [DetectorConfig(**cell) for cell in payload["detectors"]]
    stats_list = batch_backend.BatchSimulator(config, cells).run()
    return {
        "keys": payload["keys"],
        "stats": [s.to_dict(include_events=False) for s in stats_list],
        "wall_time": time.perf_counter() - start,
        "worker": f"pid{os.getpid()}",
    }


def _batch_payload(jobs: Sequence[CellJob]) -> Dict[str, Any]:
    """Pickle-light dict form of one batch group."""
    return {
        "keys": [job.key for job in jobs],
        # Full per-cell detector configs: groups fold across mechanisms
        # and probe caps, not just thresholds.
        "detectors": [asdict(job.config.detector) for job in jobs],
        # Any member's config works: the group is equal modulo its
        # detector cell (batch_group_key masks exactly those fields).
        "config": jobs[0].config.to_dict(),
    }


def _plan_batch_jobs(
    pending: Sequence[CellJob],
) -> Tuple[List[List[CellJob]], List[CellJob]]:
    """Split cache-miss jobs into shareable batch groups and singles."""
    groups, singles = batch_backend.plan_batches(
        [job.config for job in pending]
    )
    return (
        [[pending[i] for i in group] for group in groups],
        [pending[i] for i in singles],
    )


def default_num_workers() -> int:
    """Default fan-out: one worker per CPU."""
    return os.cpu_count() or 1


def execute_jobs(
    jobs: Sequence[CellJob],
    num_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, JobOutcome]:
    """Resolve every job to a :class:`JobOutcome`, keyed by job key.

    Args:
        jobs: the campaign's cells (any iteration order).
        num_workers: process-pool width; ``None`` means one per CPU,
            ``1`` runs serially in-process.
        cache: optional on-disk result store consulted before running.
        checkpoint: optional manifest; every newly resolved cell is
            recorded immediately (crash-safe).
        resume: consult the manifest's finished records before
            scheduling work (requires ``checkpoint``).
        progress: optional ``progress(done, total)`` callback.
    """
    if num_workers is None:
        num_workers = default_num_workers()
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    total = len(jobs)
    done = 0
    outcomes: Dict[str, JobOutcome] = {}
    completed = checkpoint.completed() if (resume and checkpoint) else {}

    def tick() -> None:
        if progress is not None:
            progress(done, total)

    def finish(outcome: JobOutcome, record: bool = True) -> None:
        nonlocal done
        outcomes[outcome.job.key] = outcome
        if outcome.source == "run" and cache is not None:
            cache.put(
                outcome.job.config_hash,
                {
                    "key": outcome.job.key,
                    "cell": cell_to_dict(outcome.cell),
                    "wall_time": outcome.wall_time,
                    "worker": outcome.worker,
                    "engine": outcome.engine,
                    "phase_time": outcome.phase_time,
                },
            )
        if record and checkpoint is not None:
            checkpoint.record_cell(
                key=outcome.job.key,
                config_hash=outcome.job.config_hash,
                cell=cell_to_dict(outcome.cell),
                wall_time=outcome.wall_time,
                worker=outcome.worker,
                source=outcome.source,
                engine=outcome.engine,
                phase_time=outcome.phase_time,
            )
        done += 1
        tick()

    # Layer 1 + 2: serve what the manifest and the cache already know.
    # Stored entries are validated, not trusted: a torn or wrong-shape
    # record (killed writer, hand-edited file) downgrades to the next
    # layer with a warning instead of poisoning the whole campaign.
    pending: List[CellJob] = []
    for job in jobs:
        record = completed.get(job.config_hash)
        if record is not None:
            outcome = _outcome_from_stored(
                job, record, worker="manifest", source="resume"
            )
            if outcome is not None:
                # Already in the manifest; re-recording would double-count.
                finish(outcome, record=False)
                continue
        payload = cache.get(job.config_hash) if cache is not None else None
        if payload is not None:
            outcome = _outcome_from_stored(
                job, payload, worker="cache", source="cache"
            )
            if outcome is not None:
                finish(outcome)
                continue
        pending.append(job)

    # Layer 3: simulate the rest.  Eligible cells that differ only in
    # their detector cell share one trajectory per group
    # (see repro.network.batch); everything else runs per cell.
    groups, singles = _plan_batch_jobs(pending)
    if num_workers == 1:
        for job in singles:
            result = _execute_payload(job.payload())
            finish(_outcome_from_result(job, result, worker="serial"))
        for group in groups:
            result = _execute_batch_payload(_batch_payload(group))
            for outcome in _outcomes_from_batch(group, result, worker="serial"):
                finish(outcome)
    elif pending:
        _run_pool(singles, groups, num_workers, finish)
    return outcomes


def _outcome_from_stored(
    job: CellJob, payload: Dict[str, Any], worker: str, source: str
) -> Optional[JobOutcome]:
    """Rebuild a stored (manifest/cache) entry, or ``None`` if malformed."""
    try:
        cell = cell_from_dict(payload["cell"])
        wall_time = float(payload.get("wall_time", 0.0))
        engine = str(payload.get("engine", ""))
        phase_time = dict(payload.get("phase_time", {}))
    except (KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            f"ignoring malformed {source} entry for {job.key} "
            f"({type(exc).__name__}: {exc}); the cell will be re-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return JobOutcome(
        job=job,
        cell=cell,
        wall_time=wall_time,
        worker=worker,
        source=source,
        engine=engine,
        phase_time=phase_time,
    )


def _outcome_from_result(
    job: CellJob, result: Dict[str, Any], worker: Optional[str] = None
) -> JobOutcome:
    """Rebuild stats shipped by a worker and derive the cell result."""
    stats = SimulationStats.from_dict(result["stats"])
    return JobOutcome(
        job=job,
        cell=cell_from_stats(stats, job.rate),
        wall_time=result["wall_time"],
        worker=worker if worker is not None else result["worker"],
        source="run",
        engine=stats.engine,
        phase_time=dict(stats.phase_time),
    )


def _outcomes_from_batch(
    jobs: Sequence[CellJob],
    result: Dict[str, Any],
    worker: Optional[str] = None,
) -> Iterator[JobOutcome]:
    """Split one batch-group result into per-cell outcomes.

    The group's wall time is attributed evenly across its cells — the
    shared trajectory is one indivisible advance, and an even split
    keeps campaign-level wall-time sums meaningful.
    """
    per_cell = result["wall_time"] / max(len(jobs), 1)
    who = worker if worker is not None else result["worker"]
    for job, stats_dict in zip(jobs, result["stats"]):
        stats = SimulationStats.from_dict(stats_dict)
        yield JobOutcome(
            job=job,
            cell=cell_from_stats(stats, job.rate),
            wall_time=per_cell,
            worker=who,
            source="run",
            engine=stats.engine,
            phase_time=dict(stats.phase_time),
        )


def _run_pool(
    singles: Sequence[CellJob],
    groups: Sequence[Sequence[CellJob]],
    num_workers: int,
    finish: Callable[[JobOutcome], None],
) -> None:
    """Fan pending work out over a process pool, finishing out-of-order.

    Batch groups are single pool tasks (one shared run each); their
    per-cell outcomes are finished together when the group completes.
    """
    width = min(num_workers, len(singles) + len(groups))
    executor = ProcessPoolExecutor(max_workers=width)
    try:
        futures: Dict[Any, Optional[CellJob]] = {
            executor.submit(_execute_payload, job.payload()): job
            for job in singles
        }
        group_futures: Dict[Any, Sequence[CellJob]] = {
            executor.submit(_execute_batch_payload, _batch_payload(group)): group
            for group in groups
        }
        futures.update({future: None for future in group_futures})
        not_done = set(futures)
        while not_done:
            finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in finished:
                job = futures[future]
                if job is not None:
                    finish(_outcome_from_result(job, future.result()))
                else:
                    group = group_futures[future]
                    for outcome in _outcomes_from_batch(group, future.result()):
                        finish(outcome)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
