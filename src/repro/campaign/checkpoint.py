"""Incremental campaign manifest: crash-safe progress + telemetry.

The manifest is JSON-lines: one ``campaign`` header per engine start and
one ``cell`` record per finished simulation, flushed as soon as the cell
completes.  Killing a campaign mid-run therefore loses at most the cells
still in flight; re-running with resume enabled replays the manifest and
only schedules cells whose config hash has no finished record.

Each cell record also carries telemetry — wall-clock seconds, the worker
that ran it, and whether it came from a live run, the cache, or a
previous manifest — which :func:`summarize_manifest` turns into the
``repro-experiments campaign summary`` report.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


class CampaignCheckpoint:
    """Append-only JSONL manifest of completed campaign cells.

    Args:
        path: manifest file location (parent dirs created on demand).
        fresh: truncate any existing manifest instead of extending it
            (a plain re-run rather than a resume).
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.path = Path(path)
        if fresh and self.path.exists():
            self.path.unlink()
        self._check_tail = not fresh  # first append: look for a torn tail
        #: ``completed()``'s map, parsed on its first call and then kept
        #: current by this checkpoint's own appends.
        self._done: Optional[Dict[str, Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, table_id: int, total: int) -> None:
        """Record that a (new or resumed) table campaign began."""
        self._append(
            {"kind": "campaign", "table_id": table_id, "total": total}
        )

    def record_cell(
        self,
        key: str,
        config_hash: str,
        cell: Dict[str, Any],
        wall_time: float,
        worker: str,
        source: str,
        engine: str = "",
        phase_time: Optional[Dict[str, float]] = None,
    ) -> None:
        """Persist one finished cell (flushed immediately)."""
        record = {
            "kind": "cell",
            "key": key,
            "config_hash": config_hash,
            "cell": cell,
            "wall_time": wall_time,
            "worker": worker,
            "source": source,
        }
        if engine:
            record["engine"] = engine
        if phase_time:
            record["phase_time"] = phase_time
        self._append(record)
        if self._done is not None:
            self._done[config_hash] = record

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._check_tail and self.path.exists():
            # A crashed writer can leave a half-written last line: start on a
            # fresh one, or this record is glued to the fragment and lost too.
            with self.path.open("rb") as handle:
                handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
                if handle.read(1) not in (b"", b"\n"):
                    line = "\n" + line
        self._check_tail = False  # every later line is this writer's own
        try:
            handle = self.path.open("a")
        except FileNotFoundError:  # first line, or the directory vanished
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = self.path.open("a")
        with handle:
            handle.write(line)
            handle.flush()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every parseable manifest record (corrupt tail lines skipped)."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a line cut short by a crash
        return records

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Finished cells by config hash (latest record wins).

        Keyed by config hash rather than grid position, so a resumed
        campaign re-runs any cell whose configuration changed (different
        seed, grid, or saturation) instead of serving stale results.

        The manifest is parsed on the first call only; later calls see it
        as of then plus this checkpoint's own ``record_cell`` lines, so a
        multi-table resume reads the file once, not once per table.
        """
        if self._done is None:
            self._done = {}
            for record in self.records():
                if record.get("kind") == "cell" and "config_hash" in record:
                    self._done[record["config_hash"]] = record
        return dict(self._done)


# ----------------------------------------------------------------------
# Campaign summary report
# ----------------------------------------------------------------------

@dataclass
class CampaignSummary:
    """Aggregated telemetry of one manifest."""

    total_cells: int = 0
    by_source: Counter[str] = field(default_factory=Counter)
    by_worker: Counter[str] = field(default_factory=Counter)
    by_table: Counter[str] = field(default_factory=Counter)
    wall_time_total: float = 0.0
    wall_time_max: float = 0.0
    slowest_key: Optional[str] = None
    campaigns_started: int = 0
    by_engine: Counter[str] = field(default_factory=Counter)
    phase_time_total: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_time_mean(self) -> float:
        return self.wall_time_total / self.total_cells if self.total_cells else 0.0


def summarize_manifest(path: str) -> CampaignSummary:
    """Fold a manifest into a :class:`CampaignSummary`."""
    summary = CampaignSummary()
    for record in CampaignCheckpoint(path).records():
        if record.get("kind") == "campaign":
            summary.campaigns_started += 1
            continue
        if record.get("kind") != "cell":
            continue
        summary.total_cells += 1
        summary.by_source[record.get("source", "run")] += 1
        summary.by_worker[record.get("worker", "?")] += 1
        table = record.get("key", "?").split("/", 1)[0]
        summary.by_table[table] += 1
        wall = float(record.get("wall_time", 0.0))
        summary.wall_time_total += wall
        if wall > summary.wall_time_max:
            summary.wall_time_max = wall
            summary.slowest_key = record.get("key")
        engine = record.get("engine")
        if engine:
            summary.by_engine[engine] += 1
        for phase, seconds in record.get("phase_time", {}).items():
            summary.phase_time_total[phase] = summary.phase_time_total.get(
                phase, 0.0
            ) + float(seconds)
    return summary


def render_summary(summary: CampaignSummary) -> str:
    """Human-readable ``campaign summary`` report."""
    if summary.total_cells == 0:
        return "campaign manifest is empty (no completed cells recorded)"
    lines = [
        f"campaigns started     : {summary.campaigns_started}",
        f"cells completed       : {summary.total_cells}",
        "cells by source       : "
        + ", ".join(
            f"{source}={count}"
            for source, count in sorted(summary.by_source.items())
        ),
        "cells by table        : "
        + ", ".join(
            f"{table}={count}"
            for table, count in sorted(summary.by_table.items())
        ),
        f"simulated wall time   : {summary.wall_time_total:.2f}s total, "
        f"{summary.wall_time_mean:.2f}s/cell mean, "
        f"{summary.wall_time_max:.2f}s max"
        + (f" ({summary.slowest_key})" if summary.slowest_key else ""),
        f"workers               : {len(summary.by_worker)} "
        + "("
        + ", ".join(
            f"{worker}: {count}"
            for worker, count in sorted(summary.by_worker.items())
        )
        + ")",
    ]
    if summary.by_engine:
        lines.append(
            "cells by engine       : "
            + ", ".join(
                f"{engine}={count}"
                for engine, count in sorted(summary.by_engine.items())
            )
        )
    if summary.phase_time_total:
        lines.append(
            "phase wall time       : "
            + ", ".join(
                f"{phase}={seconds:.2f}s"
                for phase, seconds in sorted(summary.phase_time_total.items())
            )
        )
    return "\n".join(lines)
