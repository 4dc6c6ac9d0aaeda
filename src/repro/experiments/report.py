"""Rendering of regenerated tables in the paper's layout.

The paper's tables have one row per detection threshold and one column per
(injection rate, message size) pair, with ``(*)`` marking columns in which
actual deadlocks were detected.  ``render_table`` reproduces that layout;
``render_comparison`` adds the paper's published value next to each of our
measurements; ``save_result`` writes a table's text and JSON to disk.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.experiments.paper_data import PAPER_TABLES
from repro.experiments.runner import TableResult


def render_table(result: TableResult, title: Optional[str] = None) -> str:
    """ASCII rendering of one regenerated table, paper layout."""
    spec = result.spec
    lines = [title if title is not None else f"Table {spec.table_id}: {spec.title}"]
    lines.append(
        f"mechanism={spec.mechanism}  pattern={spec.pattern}  "
        "values = % of messages detected as possibly deadlocked "
        "(* = actual deadlock observed)"
    )
    header1 = ["        "]
    header2 = ["M. Size "]
    for load_index, rate in enumerate(result.rates):
        sat = " (sat)" if load_index in spec.saturated_loads else ""
        group = f"{rate:.4g}{sat}"
        width = 9 * len(spec.sizes)
        header1.append(group.center(width))
        for size in spec.sizes:
            header2.append(f"{size:>8} ")
    lines.append("".join(header1))
    lines.append("".join(header2))
    for threshold in spec.thresholds:
        row = [f"Th {threshold:<5}"]
        for load_index in range(len(result.rates)):
            for size in spec.sizes:
                cell = result.cell(threshold, load_index, size)
                row.append(f"{cell.label():>8} ")
        lines.append("".join(row))
    return "\n".join(lines)


def render_comparison(result: TableResult) -> str:
    """Side-by-side rendering: our measurement vs the paper's value.

    Only cells present in both grids are compared (quick grids are a
    subset of the paper's rows/columns).  Cells are shown as
    ``ours/paper``.
    """
    spec = result.spec
    paper = PAPER_TABLES.get(spec.table_id)
    if paper is None:
        return render_table(result)
    lines = [
        f"Table {spec.table_id} comparison (ours / paper), "
        f"mechanism={spec.mechanism}, pattern={spec.pattern}",
        "loads are matched by position: our rate at the same fraction of "
        "saturation as the paper's rate",
    ]
    header = ["M. Size "]
    for load_index, rate in enumerate(result.rates):
        paper_rate = (
            paper["rates"][load_index]
            if load_index < len(paper["rates"])
            else None
        )
        for size in spec.sizes:
            label = f"{size}@{rate:.3g}"
            header.append(f"{label:>16} ")
    lines.append("".join(header))
    for threshold in spec.thresholds:
        paper_row = paper["rows"].get(threshold)
        row = [f"Th {threshold:<5}"]
        for load_index in range(len(result.rates)):
            for size in spec.sizes:
                ours = result.cell(threshold, load_index, size).percentage
                if paper_row is not None and size in paper["sizes"]:
                    pv = paper_row[_paper_load_index(result, paper, load_index)][
                        paper["sizes"].index(size)
                    ]
                    cell = f"{ours:.3f}/{pv:.3f}"
                else:
                    cell = f"{ours:.3f}/  -  "
                row.append(f"{cell:>16} ")
        lines.append("".join(row))
    return "\n".join(lines)


def _paper_load_index(result: TableResult, paper: dict, load_index: int) -> int:
    """Map our load index onto the paper's (quick grids skip loads)."""
    if len(result.rates) == len(paper["rates"]):
        return load_index
    # Quick grid keeps (second, last) loads of the paper's four.
    mapping = {0: 1, 1: len(paper["rates"]) - 1}
    return mapping.get(load_index, load_index)


def table_to_json(result: TableResult) -> str:
    """Machine-readable dump of a regenerated table."""
    spec = result.spec
    payload = {
        "table_id": spec.table_id,
        "title": spec.title,
        "mechanism": spec.mechanism,
        "pattern": spec.pattern,
        "sizes": list(spec.sizes),
        "rates": list(result.rates),
        "thresholds": list(spec.thresholds),
        "cells": {
            str(threshold): {
                f"{load_index}:{size}": {
                    "percentage": cell.percentage,
                    "messages_detected": cell.messages_detected,
                    "detections": cell.detections,
                    "true": cell.true_detections,
                    "false": cell.false_detections,
                    "injected": cell.injected,
                    "throughput": cell.throughput,
                    "deadlock": cell.had_true_deadlock,
                }
                for (load_index, size), cell in row.items()
            }
            for threshold, row in result.cells.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


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
