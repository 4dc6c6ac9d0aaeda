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
   ``ProcessPoolExecutor``.

All three hand back the same thing: one *record* per cell
(:func:`~repro.campaign.jobs.cell_record` — key, cell, wall time,
worker, engine, phase times), which is what a cache file holds and what
a manifest line holds next to its config hash and source.
:meth:`JobOutcome.from_record` is the one parser of that record.

Live work is scheduled in *units* — lists of jobs that share one run.
Cache-miss cells that are ``batch_eligible`` (no recovery, no faults, a
pure-observer detector, not the ``"scan"`` reference) and equal modulo
their detector cell — mechanism, threshold, probe caps — form one unit
per group and advance on one shared trajectory (see
``repro.network.batch``); every other cell is a unit of one.  Grouping
is a pure optimization: fold results are bit-identical to per-cell runs
and do not depend on the partition, so ``--resume`` re-grouping after a
partial run reproduces the same per-cell records byte for byte.

Cells run out of order under the pool, but records are keyed, so
callers reassemble tables in canonical order and the output is
bit-identical to the sequential path.  The worker derives each
``CellResult`` where the run's statistics already are and ships only
the record, so nothing but nine numbers and the telemetry crosses the
process boundary.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.jobs import CellJob, cell_from_dict, cell_record, unit_payload
from repro.experiments.runner import CellResult, cell_from_stats
from repro.network import batch as batch_backend
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator

ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class JobOutcome:
    """One resolved cell: the result plus execution telemetry."""

    job: CellJob
    cell: CellResult
    #: Wall-clock seconds the simulation took (as stored, when served
    #: from disk).
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

    @classmethod
    def from_record(
        cls,
        job: CellJob,
        record: Dict[str, Any],
        source: str,
        worker: Optional[str] = None,
    ) -> Optional["JobOutcome"]:
        """Parse a cell record, or ``None`` (with a warning) if malformed.

        ``worker`` relabels a record served from disk (``"cache"`` /
        ``"manifest"``); a live record names its own.
        """
        try:
            return cls(
                job=job,
                cell=cell_from_dict(record["cell"]),
                wall_time=float(record.get("wall_time", 0.0)),
                worker=worker or str(record["worker"]),
                source=source,
                engine=str(record.get("engine", "")),
                phase_time=dict(record.get("phase_time", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(
                f"ignoring malformed {source} entry for {job.key} "
                f"({type(exc).__name__}: {exc}); the cell will be re-resolved",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def record(self) -> Dict[str, Any]:
        """The stored form of this outcome (see ``cell_record``)."""
        return cell_record(
            self.job.key,
            self.cell,
            self.wall_time,
            self.worker,
            self.engine,
            self.phase_time,
        )


def _run_unit(
    payload: Dict[str, Any], worker: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Worker entry point: run one unit, return one record per cell.

    Top-level (picklable) and dict-in/dicts-out, so the same function
    backs the serial loop and the process pool.  One key runs its own
    ``Simulator``; several share a single trajectory (see
    ``repro.network.batch``), whose wall time is attributed evenly
    across the cells — the shared run is one indivisible advance, and an
    even split keeps campaign-level wall-time sums meaningful.
    """
    start = time.perf_counter()
    config = SimulationConfig.from_dict(payload["config"])
    keys = payload["keys"]
    if len(keys) == 1:
        stats_list = [Simulator(config).run()]
    else:
        cells = [DetectorConfig(**cell) for cell in payload["detectors"]]
        stats_list = batch_backend.BatchSimulator(config, cells).run()
    per_cell = (time.perf_counter() - start) / len(keys)
    who = worker or f"pid{os.getpid()}"
    return [
        cell_record(
            key,
            cell_from_stats(stats, rate),
            per_cell,
            who,
            stats.engine,
            stats.phase_time,
        )
        for key, rate, stats in zip(keys, payload["rates"], stats_list)
    ]


def _predicted_cost(unit: Sequence[CellJob]) -> float:
    """A unit's run cost up to a constant: cycles x nodes x offered load."""
    config = unit[0].config
    cycles = config.warmup_cycles + config.measure_cycles
    return cycles * config.radix**config.dimensions * config.traffic.injection_rate


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
    outcomes: Dict[str, JobOutcome] = {}
    completed = checkpoint.completed() if (resume and checkpoint) else {}

    def finish(outcome: Optional[JobOutcome]) -> bool:
        """Adopt a parsed outcome and store it; ``False`` if it is ``None``."""
        if outcome is None:
            return False
        job = outcome.job
        outcomes[job.key] = outcome
        # A resumed cell is already in the manifest; re-recording would
        # double-count it.
        if outcome.source != "resume":
            record = outcome.record()
            if outcome.source == "run" and cache is not None:
                cache.put(job.config_hash, record)
            if checkpoint is not None:
                checkpoint.record_cell(
                    config_hash=job.config_hash, source=outcome.source, **record
                )
        if progress is not None:
            progress(len(outcomes), total)
        return True

    # Layer 1 + 2: serve what the manifest and the cache already know.
    # Stored entries are validated, not trusted: a torn or wrong-shape
    # record (killed writer, hand-edited file) downgrades to the next
    # layer with a warning instead of poisoning the whole campaign.
    pending: List[CellJob] = []
    for job in jobs:
        stored = completed.get(job.config_hash)
        if stored is not None and finish(
            JobOutcome.from_record(job, stored, "resume", worker="manifest")
        ):
            continue
        stored = cache.get(job.config_hash) if cache is not None else None
        if stored is not None and finish(
            JobOutcome.from_record(job, stored, "cache", worker="cache")
        ):
            continue
        pending.append(job)

    # A cell its simulator would reject fails here, before any neighbour runs.
    for job in pending:
        job.config.validate()

    # Layer 3: simulate the rest, unit by unit — the cells nothing can
    # share with as units of one, then the shared-trajectory groups.
    groups, singles = batch_backend.plan_batches(
        [job.config for job in pending]
    )
    units = [[pending[i]] for i in singles]
    units += [[pending[i] for i in group] for group in groups]

    def finish_unit(unit: List[CellJob], records: List[Dict[str, Any]]) -> None:
        for job, record in zip(unit, records):
            if not finish(JobOutcome.from_record(job, record, "run")):
                raise RuntimeError(f"worker returned no usable record for {job.key}")

    if num_workers == 1:
        for unit in units:
            finish_unit(unit, _run_unit(unit_payload(unit), "serial"))
    elif units:
        # Imported here: a serial campaign never loads the pool machinery
        # (multiprocessing and its queues, 1.7 MB resident on CPython 3.11).
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Units finish out of order; each is one pool task, submitted
        # longest first so no long unit starts last (ties keep their order).
        pool = ProcessPoolExecutor(max_workers=min(num_workers, len(units)))
        try:
            futures = {
                pool.submit(_run_unit, unit_payload(unit)): unit
                for unit in sorted(units, key=_predicted_cost, reverse=True)
            }
            for future in as_completed(futures):
                finish_unit(futures[future], future.result())
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return outcomes
