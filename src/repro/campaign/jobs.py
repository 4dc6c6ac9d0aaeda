"""Job enumeration for experiment campaigns.

A *campaign* is a bag of independent simulations.  Each one is described
by a self-contained :class:`CellJob`: the fully resolved
:class:`~repro.network.config.SimulationConfig`, the table coordinates it
fills, and a stable content hash of the config that keys the on-disk
result cache and the resume manifest.  Because the hash covers every
field that influences the simulation (topology, workload, detector,
seed, windows), two jobs with equal hashes are guaranteed to produce the
same :class:`~repro.experiments.runner.CellResult` — which is what makes
caching and resumption safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.runner import CellResult, build_cell_config
from repro.experiments.spec import TableSpec
from repro.network.config import SimulationConfig


#: One encoder for every config hash: ``json.dumps`` with keyword
#: arguments builds a new encoder on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_config_json(config: SimulationConfig) -> str:
    """Canonical JSON text of a config (sorted keys, no whitespace)."""
    return _CANONICAL.encode(config.to_dict())


def config_hash(config: SimulationConfig) -> str:
    """Stable content hash of a fully resolved simulation config.

    Equal hashes imply bit-identical simulations (configs determine runs
    completely, including the seed), so the hash doubles as the result
    cache key.
    """
    text = canonical_config_json(config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_key(table_id: int, threshold: int, load_index: int, size: str) -> str:
    """Human-readable stable identity of one cell inside a campaign."""
    return f"table{table_id}/th{threshold}/load{load_index}/{size}"


@dataclass(frozen=True)
class CellJob:
    """One self-describing unit of campaign work (one simulation)."""

    #: Stable identity inside the campaign (table + grid coordinates).
    key: str
    table_id: int
    threshold: int
    load_index: int
    size: str
    #: Offered injection rate in flits/cycle/node.
    rate: float
    #: Fully resolved simulation config for this cell.
    config: SimulationConfig
    #: Content hash of ``config`` (cache / manifest key).
    config_hash: str


def unit_payload(kind: str, jobs: Sequence[CellJob]) -> Dict[str, Any]:
    """Pickle-light dict form of one unit of work.

    ``kind`` says how the unit runs (see ``repro.campaign.executor``):
    ``"cell"`` is one solo cell; ``"fold"`` is a group equal modulo its
    detector cell (``batch_group_key`` masks exactly those fields) that
    shares one trajectory; ``"chain"`` is a group equal modulo its
    threshold, in ascending threshold order.  The first job's config
    describes the rest once the per-cell detector configs are swapped in
    — fold groups span mechanisms and probe caps, not just thresholds.
    """
    return {
        "kind": kind,
        "keys": [job.key for job in jobs],
        "rates": [job.rate for job in jobs],
        "detectors": [dataclasses.asdict(job.config.detector) for job in jobs],
        "config": jobs[0].config.to_dict(),
    }


#: Stand-ins for the fields a table's cells differ in, in sort order:
#: ``detector.threshold``, ``traffic.injection_rate``, ``traffic.lengths``.
_THRESHOLD, _RATE, _SIZE = "\x00threshold", "\x00rate", "\x00size"


def _scalar_json(value: Any) -> str:
    """``value`` as ``config_hash``'s encoder writes it (``repr`` for an int
    or a finite float); raises on a value that encoder rejects."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return _CANONICAL.encode(value)


def enumerate_table_jobs(
    spec: TableSpec,
    base: SimulationConfig,
    saturation: float,
) -> Tuple[Tuple[float, ...], List[CellJob]]:
    """Expand one table spec into its (rates, jobs) in canonical order.

    Every cell runs on ``base.seed``, exactly as the sequential runner
    does; vary the seed by passing a different ``base``.

    The table's canonical text is encoded once, with stand-ins in the
    three fields its cells differ in, and cut there (``ValueError`` if a
    cut could land inside another field); a cell's key hashes the pieces
    joined around its own values: the very text ``config_hash`` hashes.

    Args:
        spec: the table's grid definition.
        base: base simulation config (topology, windows, seed).
        saturation: saturation rate (flits/cycle/node) scaling the loads.
    """
    rates = tuple(round(f * saturation, 4) for f in spec.load_fractions)
    template = build_cell_config(base, spec, _THRESHOLD, _SIZE, _RATE)
    whole = tail = canonical_config_json(template)
    pieces = []
    for mark in map(_CANONICAL.encode, (_THRESHOLD, _RATE, _SIZE)):
        piece, found, tail = tail.partition(mark)
        if not found or whole.count(mark) != 1:
            raise ValueError(f"cannot cut a table's key text at {mark}")
        pieces.append(piece)
    head, after_threshold, after_rate = pieces
    jobs: List[CellJob] = []
    for threshold, load_index, size in spec.cell_coords():
        rate = rates[load_index]
        config = template.replace()
        config.detector.threshold = threshold
        config.traffic.injection_rate = rate
        config.traffic.lengths = size
        text = (f"{head}{_scalar_json(threshold)}{after_threshold}"
                f"{_scalar_json(rate)}{after_rate}{_scalar_json(size)}{tail}")
        jobs.append(
            CellJob(
                key=job_key(spec.table_id, threshold, load_index, size),
                table_id=spec.table_id,
                threshold=threshold,
                load_index=load_index,
                size=size,
                rate=rate,
                config=config,
                config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            )
        )
    return rates, jobs


# ----------------------------------------------------------------------
# Cell records (cache / manifest payloads)
# ----------------------------------------------------------------------

def cell_record(
    key: str,
    cell: CellResult,
    wall_time: float,
    worker: str,
    engine: str,
    phase_time: Dict[str, float],
) -> Dict[str, Any]:
    """The stored form of one resolved cell.

    A worker returns it, a cache file holds it, and a manifest line
    holds it next to ``kind`` / ``config_hash`` / ``source``.  Only a
    profiled run has ``phase_time``, and a record that names no engine
    (one stored before engines were recorded) has no ``engine``.
    """
    record: Dict[str, Any] = {
        "key": key,
        "cell": cell_to_dict(cell),
        "wall_time": wall_time,
        "worker": worker,
    }
    if engine:
        record["engine"] = engine
    if phase_time:
        record["phase_time"] = phase_time
    return record


#: ``CellResult``'s fields, in declaration order.
_CELL_FIELDS = tuple(f.name for f in dataclasses.fields(CellResult))


def cell_to_dict(cell: CellResult) -> Dict[str, Any]:
    """JSON-serializable form of one cell result: its nine scalars, the
    same dict ``dataclasses.asdict`` builds without its recursive walk."""
    return {name: getattr(cell, name) for name in _CELL_FIELDS}


def cell_from_dict(payload: Dict[str, Any]) -> CellResult:
    """Inverse of :func:`cell_to_dict`.

    JSON round-trips Python floats exactly, so a reloaded cell compares
    equal to the original — cached tables render byte-identically.
    """
    return CellResult(**payload)
