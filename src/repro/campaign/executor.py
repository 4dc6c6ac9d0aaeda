"""Parallel execution of campaign jobs.

``execute_jobs`` resolves every :class:`~repro.campaign.jobs.CellJob`
through three layers, cheapest first:

1. **resume** — a finished record in the campaign manifest
   (:class:`~repro.campaign.checkpoint.CampaignCheckpoint`) with a
   matching config hash;
2. **cache** — the content-addressed on-disk store
   (:class:`~repro.campaign.cache.ResultCache`);
3. **run** — a live simulation, either in-process (``num_workers=1``,
   the deterministic serial fallback used by tests, and any call with
   fewer than two units to run) or fanned out over a
   ``ProcessPoolExecutor`` that is shut down, workers reaped, before the
   call returns.

Jobs with equal config hashes (the same cell in two tables) are
simulated once; the later ones are served from the cache after the
run, or copied from their twin when there is no cache.

All three hand back the same thing: one *record* per cell
(:func:`~repro.campaign.jobs.cell_record` — key, cell, wall time,
worker, engine, phase times), which is what a cache file holds and what
a manifest line holds next to its config hash and source.
:meth:`JobOutcome.from_record` is the one parser of that record.

Live work is scheduled in *units* of three kinds, named in the unit's
payload:

* **fold** — cache-miss cells that are ``batch_eligible`` (no recovery,
  no faults, not the ``"scan"`` reference) and equal modulo their
  detector cell — mechanism, threshold, promotion variant, probe caps —
  advance on one shared trajectory (see ``repro.network.batch``);
* **chain** — the remaining cells that are equal modulo their threshold
  and whose mechanism is ``threshold_monotone`` (its threshold acts only
  through ``score > threshold``: pdm, ndm, the three timeouts) run one
  by one in ascending threshold; once a run marks nothing in its whole
  run (``stats.detections == 0``, warm-up included: a warm-up mark
  changes the trajectory too), it *is* the run at every higher
  threshold, and the cells above it are not simulated;
* **cell** — every other cell runs alone.

Both sharing kinds are pure optimizations: a folded or skipped cell's
``CellResult`` is bit-identical to its solo run and does not depend on
the partition, so ``--resume`` re-planning after a partial run
reproduces the same per-cell results byte for byte.  A skipped cell's
record is its solo record with ``wall_time`` 0.0 (and every phase time
0.0 when profiled): no simulation time was spent on it, so
``campaign summary`` totals stay the real simulation time.  A fold or a
chain is recorded when the whole unit returns; a kill mid-unit re-runs
the unit on ``--resume``.

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
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.jobs import CellJob, cell_from_dict, cell_record, unit_payload
from repro.core.registry import threshold_monotone
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
    #: Wall seconds per simulator phase (empty unless the run was
    #: profiled; pre-engine records have none either).
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


class _Unit(NamedTuple):
    """One unit of live work: its kind and its jobs, in run order."""

    kind: str  # "cell", "fold" or "chain"
    jobs: List[CellJob]


def _run_unit(
    payload: Dict[str, Any], worker: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Worker entry point: run one unit, return one record per cell.

    Top-level (picklable) and dict-in/dicts-out, so the same function
    backs the serial loop and the process pool.  A fold runs one shared
    trajectory (see ``repro.network.batch``), whose wall time is
    attributed evenly across the cells — the shared run is one
    indivisible advance, and an even split keeps campaign-level
    wall-time sums meaningful.  A cell is a chain of one: a chain runs
    its own ``Simulator`` per cell, in payload order, until a run marks
    nothing, and hands that run's result to every cell after it, with no
    wall time.
    """
    config = SimulationConfig.from_dict(payload["config"])
    profiled = config.profile_phases
    who = worker or f"pid{os.getpid()}"

    def record(
        key: str,
        rate: float,
        stats: SimulationStats,
        wall: float,
        phase_time: Dict[str, float],
    ) -> Dict[str, Any]:
        return cell_record(
            key, cell_from_stats(stats, rate), wall, who, stats.engine, phase_time
        )

    keys, rates, detectors = payload["keys"], payload["rates"], payload["detectors"]
    if payload["kind"] == "fold":
        start = time.perf_counter()
        cells = [DetectorConfig(**cell) for cell in detectors]
        stats_list = batch_backend.BatchSimulator(config, cells).run()
        per_cell = (time.perf_counter() - start) / len(keys)
        return [
            record(key, rate, stats, per_cell, stats.phase_time if profiled else {})
            for key, rate, stats in zip(keys, rates, stats_list)
        ]

    records: List[Dict[str, Any]] = []
    quiet: Optional[SimulationStats] = None  # a chain run that marked nothing
    for key, rate, cell in zip(keys, rates, detectors):
        if quiet is not None:
            idle = dict.fromkeys(quiet.phase_time, 0.0) if profiled else {}
            records.append(record(key, rate, quiet, 0.0, idle))
            continue
        start = time.perf_counter()
        stats = Simulator(config.replace(detector=DetectorConfig(**cell))).run()
        wall = time.perf_counter() - start
        records.append(
            record(key, rate, stats, wall, stats.phase_time if profiled else {})
        )
        if stats.detections == 0:
            quiet = stats
    return records


def _predicted_cost(unit: _Unit) -> float:
    """A unit's run cost up to a constant: cycles x nodes x offered load,
    per run — a chain is charged every cell (an upper bound)."""
    config = unit.jobs[0].config
    cycles = config.warmup_cycles + config.measure_cycles
    runs = 1 if unit.kind == "fold" else len(unit.jobs)
    nodes = config.radix**config.dimensions
    return runs * cycles * nodes * config.traffic.injection_rate


def _plan_chains(jobs: Sequence[CellJob]) -> List[_Unit]:
    """Split the cells no fold took into chains and solo cells.

    Cells whose mechanism is ``threshold_monotone``, that could not fold
    (``batch_eligible`` ones fold: one run beats a chain) and that are
    equal modulo their threshold form one ``"chain"`` unit in ascending
    threshold; a lone one and every other cell is a ``"cell"``.  Units
    keep the input order of their first member.
    """
    groups: List[List[CellJob]] = []
    chains: Dict[str, List[CellJob]] = {}
    for job in jobs:
        config = job.config
        monotone = threshold_monotone(config.detector)
        if monotone and not batch_backend.batch_eligible(config):
            key = batch_backend.batch_group_key(config, masked=("threshold",))
            if key not in chains:
                chains[key] = []
                groups.append(chains[key])
            chains[key].append(job)
        else:
            groups.append([job])
    return [
        _Unit("chain", sorted(group, key=lambda job: job.config.detector.threshold))
        if len(group) > 1
        else _Unit("cell", group)
        for group in groups
    ]


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
    # One manifest handle for the whole call, closed on return or raise.
    with checkpoint.appending() if checkpoint is not None else nullcontext():
        return _resolve(jobs, num_workers, cache, checkpoint, resume, progress)


def _resolve(
    jobs: Sequence[CellJob],
    num_workers: int,
    cache: Optional[ResultCache],
    checkpoint: Optional[CampaignCheckpoint],
    resume: bool,
    progress: Optional[ProgressFn],
) -> Dict[str, JobOutcome]:
    """``execute_jobs``'s body: resume, cache, then run."""
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
                checkpoint.record_cell(record, job.config_hash, outcome.source)
        if progress is not None:
            progress(len(outcomes), total)
        return True

    # Layer 1 + 2: serve what the manifest and the cache already know.
    # Stored entries are validated, not trusted: a torn or wrong-shape
    # record (killed writer, hand-edited file) downgrades to the next
    # layer with a warning instead of poisoning the whole campaign.
    pending: List[CellJob] = []
    # A config two tables share runs once: its later twins resolve
    # after the live run, from the cache when the campaign has one.
    queued: Dict[str, CellJob] = {}
    twins: List[CellJob] = []
    for job in jobs:
        if job.config_hash in queued:
            twins.append(job)
            continue
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
        queued[job.config_hash] = job

    # A cell its simulator would reject fails here, before any neighbour runs.
    for job in pending:
        job.config.validate()

    # Layer 3: simulate the rest, unit by unit — the cells nothing can
    # share with and the threshold chains, then the shared-trajectory
    # groups.
    groups, singles = batch_backend.plan_batches(
        [job.config for job in pending]
    )
    units = _plan_chains([pending[i] for i in singles])
    units += [_Unit("fold", [pending[i] for i in group]) for group in groups]

    def finish_unit(unit: _Unit, records: List[Dict[str, Any]]) -> None:
        for job, record in zip(unit.jobs, records):
            if not finish(JobOutcome.from_record(job, record, "run")):
                raise RuntimeError(f"worker returned no usable record for {job.key}")

    # A pool pays off only with two units to overlap.
    if num_workers == 1 or len(units) < 2:
        for unit in units:
            finish_unit(unit, _run_unit(unit_payload(unit.kind, unit.jobs), "serial"))
    else:
        # Imported here: a serial campaign never loads the pool machinery
        # (multiprocessing and its queues, 1.7 MB resident on CPython 3.11).
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Units finish out of order; each is one pool task, submitted
        # longest first so no long unit starts last (ties keep their order).
        pool = ProcessPoolExecutor(max_workers=min(num_workers, len(units)))
        try:
            futures = {
                pool.submit(_run_unit, unit_payload(unit.kind, unit.jobs)): unit
                for unit in sorted(units, key=_predicted_cost, reverse=True)
            }
            for future in as_completed(futures):
                finish_unit(futures[future], future.result())
        except BaseException:
            # A failed unit or Ctrl-C: drop the queue, leave running units.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # Every unit is done: reap the workers so none outlives the call.
        pool.shutdown(wait=True)

    for job in twins:
        stored = cache.get(job.config_hash) if cache is not None else None
        if stored is None or not finish(
            JobOutcome.from_record(job, stored, "cache", worker="cache")
        ):
            finish(replace(outcomes[queued[job.config_hash].key], job=job))
    return outcomes
