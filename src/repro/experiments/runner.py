"""Experiment runner: executes table specs cell by cell.

One *cell* of a paper table is a full simulation: (mechanism, threshold,
pattern, message size, injection rate).  The runner measures the paper's
metric — percentage of messages detected as possibly deadlocked — plus the
supporting data (true/false split, throughput, whether a real deadlock
occurred, matching the tables' ``(*)`` annotations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.spec import TableSpec, calibrated_saturation
from repro.metrics.stats import SimulationStats
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator


@dataclass(frozen=True)
class CellResult:
    """Outcome of one table cell (one simulation)."""

    percentage: float
    detections: int
    messages_detected: int
    true_detections: int
    false_detections: int
    injected: int
    throughput: float
    injection_rate: float
    had_true_deadlock: bool

    def label(self) -> str:
        """Cell text in the paper's style: percentage, star if deadlock."""
        text = f"{self.percentage:.3f}"
        if self.had_true_deadlock:
            text += "*"
        return text


@dataclass
class TableResult:
    """All cells of one regenerated table."""

    spec: TableSpec
    #: Offered rates used per load index (flits/cycle/node).
    rates: Tuple[float, ...] = ()
    #: cells[threshold][(load_index, size)] -> CellResult
    cells: Dict[int, Dict[Tuple[int, str], CellResult]] = field(
        default_factory=dict
    )

    def cell(self, threshold: int, load_index: int, size: str) -> CellResult:
        return self.cells[threshold][(load_index, size)]


def build_cell_config(
    base: SimulationConfig,
    spec: TableSpec,
    threshold: int,
    size: str,
    rate: float,
) -> SimulationConfig:
    """Concrete simulation config for one table cell."""
    config = base.replace()
    config.traffic.pattern = spec.pattern
    config.traffic.pattern_params = dict(spec.pattern_params)
    config.traffic.lengths = size
    config.traffic.injection_rate = rate
    config.detector.mechanism = spec.mechanism
    config.detector.threshold = threshold
    return config


def run_cell(
    base: SimulationConfig,
    spec: TableSpec,
    threshold: int,
    size: str,
    rate: float,
) -> CellResult:
    """Run one simulation and condense it into a cell result."""
    config = build_cell_config(base, spec, threshold, size, rate)
    stats = Simulator(config).run()
    return cell_from_stats(stats, rate)


def cell_from_stats(stats: SimulationStats, rate: float) -> CellResult:
    return CellResult(
        percentage=stats.detection_percentage(),
        detections=stats.detections_measured,
        messages_detected=stats.messages_detected_measured,
        true_detections=stats.true_detections,
        false_detections=stats.false_detections,
        injected=stats.injected_measured,
        throughput=stats.throughput(),
        injection_rate=rate,
        had_true_deadlock=stats.had_true_deadlock(),
    )


def saturation_rate(base: SimulationConfig, spec: TableSpec) -> float:
    """Calibrated saturation rate for the spec's pattern on the base
    configuration's scale (the 64-node quick or the 512-node paper grid).

    ``repro-experiments saturation`` measures the values in the table.
    """
    return calibrated_saturation(full=base.dimensions >= 3)[spec.pattern]


def run_table(
    spec: TableSpec,
    base: SimulationConfig,
    saturation: Optional[float] = None,
    progress=None,
    *,
    jobs: int = 1,
    cache=None,
    checkpoint=None,
    resume: bool = False,
) -> TableResult:
    """Regenerate one full table as a campaign.

    Enumerates the spec into jobs, resolves them through the campaign
    executor and reassembles the ``TableResult`` in canonical cell
    order.  The default keyword arguments run every cell serially
    in-process; ``jobs > 1`` fans the cells out over a process pool;
    ``cache``/``checkpoint``/``resume`` plug in the campaign engine's
    result store and manifest (see :mod:`repro.campaign`).  All paths
    produce byte-identical tables.

    Args:
        spec: the table's grid definition.
        base: base simulation config (topology, windows, seed).
        saturation: saturation rate override (flits/cycle/node); defaults
            to the calibrated value for the spec's pattern.
        progress: optional callable ``progress(done, total)``.
        jobs: worker-process count (1 = serial in-process).
        cache: optional :class:`repro.campaign.ResultCache`.
        checkpoint: optional :class:`repro.campaign.CampaignCheckpoint`.
        resume: reuse finished cells from the checkpoint manifest.
    """
    # Imported here: the campaign package depends on this module.  The
    # engine's names are read at call time, so patching them reaches here.
    from repro.campaign import engine

    if saturation is None:
        saturation = saturation_rate(base, spec)
    rates, cell_jobs = engine.enumerate_table_jobs(spec, base, saturation)
    if checkpoint is not None:
        checkpoint.start(spec.table_id, total=len(cell_jobs))
    outcomes = engine.execute_jobs(
        cell_jobs,
        num_workers=jobs,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
        progress=progress,
    )
    return engine.assemble_table(spec, rates, outcomes)
