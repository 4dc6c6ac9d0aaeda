"""Experiment specifications for the paper's Tables 1-7 (plus extensions).

Each table reports *percentage of messages detected as possibly
deadlocked* on a grid of detection thresholds (rows) by injection-rate /
message-size combinations (columns), for one detection mechanism and one
traffic pattern.

The paper's absolute injection rates are specific to the authors' 512-node
testbed; we reproduce the grid at the same **fractions of the saturation
rate** (the ratios below are computed from the paper's own numbers, e.g.
uniform 0.428/0.471/0.514/0.600 with 0.600 the saturated point).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.network.config import SimulationConfig, quick_config, paper_config

#: The seed of every table, every ``repro-experiments --seed`` and
#: :func:`base_config`, so ``run_cell(base_config(), ...)`` reproduces a
#: published cell.
DEFAULT_SEED = 7

#: The paper's threshold rows (powers of two, 2 .. 1024).
PAPER_THRESHOLDS: Tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Subset used by the quick benchmark mode.
QUICK_THRESHOLDS: Tuple[int, ...] = (2, 8, 32, 128)


@dataclass(frozen=True)
class TableSpec:
    """One paper table: mechanism x pattern x (loads, sizes, thresholds)."""

    table_id: int
    title: str
    mechanism: str
    pattern: str
    pattern_params: Dict[str, Any] = field(default_factory=dict)
    #: Message-size workload names (columns within each load group).
    sizes: Tuple[str, ...] = ("s", "l", "L", "sl")
    #: Loads as fractions of the measured saturation rate.
    load_fractions: Tuple[float, ...] = (0.713, 0.785, 0.857, 1.0)
    #: The paper's absolute rates, kept for reporting/columns headers.
    paper_rates: Tuple[float, ...] = (0.428, 0.471, 0.514, 0.600)
    thresholds: Tuple[int, ...] = PAPER_THRESHOLDS
    #: Which load indices the paper annotates as saturated.
    saturated_loads: Tuple[int, ...] = (3,)

    def cell_coords(self) -> Tuple[Tuple[int, int, str], ...]:
        """Every ``(threshold, load_index, size)`` cell in canonical order.

        This is the single source of truth for grid enumeration: the
        sequential runner, the campaign job enumerator and the result
        reassembly all iterate it, so parallel runs rebuild tables in
        exactly the sequential order.
        """
        return tuple(
            (threshold, load_index, size)
            for threshold in self.thresholds
            for load_index in range(len(self.load_fractions))
            for size in self.sizes
        )

    def cell_count(self) -> int:
        """Number of simulations one full run of this table needs."""
        return len(self.thresholds) * len(self.load_fractions) * len(self.sizes)


def _fractions(rates: Tuple[float, ...], sat: float) -> Tuple[float, ...]:
    return tuple(round(r / sat, 3) for r in rates)


TABLE_SPECS: Dict[int, TableSpec] = {
    1: TableSpec(
        table_id=1,
        title=(
            "Percentage of messages detected as possibly deadlocked, "
            "previous detection mechanism (PDM), uniform traffic"
        ),
        mechanism="pdm",
        pattern="uniform",
    ),
    2: TableSpec(
        table_id=2,
        title=(
            "Percentage of messages detected as possibly deadlocked, "
            "new detection mechanism (NDM), uniform traffic"
        ),
        mechanism="ndm",
        pattern="uniform",
    ),
    3: TableSpec(
        table_id=3,
        title="NDM, uniform traffic with locality",
        mechanism="ndm",
        pattern="locality",
        pattern_params={"radius": 1},
        sizes=("s", "l", "sl"),
        load_fractions=_fractions((1.429, 1.571, 1.857, 2.0), 1.857),
        paper_rates=(1.429, 1.571, 1.857, 2.0),
        thresholds=(2, 4, 8, 16, 32, 64, 128),
        saturated_loads=(2, 3),
    ),
    4: TableSpec(
        table_id=4,
        title="NDM, bit-reversal traffic",
        mechanism="ndm",
        pattern="bit-reversal",
        sizes=("s", "l", "sl"),
        load_fractions=_fractions((0.352, 0.386, 0.421, 0.451), 0.451),
        paper_rates=(0.352, 0.386, 0.421, 0.451),
        thresholds=(2, 4, 8, 16, 32, 64, 128, 256),
    ),
    5: TableSpec(
        table_id=5,
        title="NDM, perfect-shuffle traffic",
        mechanism="ndm",
        pattern="perfect-shuffle",
        sizes=("s", "l", "sl"),
        load_fractions=_fractions((0.214, 0.250, 0.286, 0.320), 0.320),
        paper_rates=(0.214, 0.250, 0.286, 0.320),
        thresholds=PAPER_THRESHOLDS,
    ),
    6: TableSpec(
        table_id=6,
        title="NDM, butterfly traffic",
        mechanism="ndm",
        pattern="butterfly",
        sizes=("s", "l", "sl"),
        load_fractions=_fractions((0.107, 0.118, 0.129, 0.139), 0.139),
        paper_rates=(0.107, 0.118, 0.129, 0.139),
        thresholds=PAPER_THRESHOLDS,
    ),
    7: TableSpec(
        table_id=7,
        title="NDM, hot-spot traffic (5% to one node)",
        mechanism="ndm",
        pattern="hot-spot",
        pattern_params={"fraction": 0.05},
        sizes=("s", "l", "sl"),
        load_fractions=_fractions((0.0628, 0.0707, 0.0786, 0.0862), 0.0862),
        paper_rates=(0.0628, 0.0707, 0.0786, 0.0862),
        thresholds=PAPER_THRESHOLDS,
    ),
    # Extension beyond the paper: the edge-chasing probe detector on the
    # same uniform-traffic grid as Table 2, so the probe family's
    # detection percentages are directly comparable against NDM's.  The
    # probe walks the channel wait-graph and only declares on a proved
    # cycle (or a fault-wedged dead end), so its cells measure *actual*
    # deadlock incidence rather than timeout-threshold pessimism.
    8: TableSpec(
        table_id=8,
        title=(
            "Percentage of messages detected as deadlocked, "
            "edge-chasing probe detector (extension), uniform traffic"
        ),
        mechanism="probe",
        pattern="uniform",
    ),
}


def full_mode() -> bool:
    """Whether the environment requests paper-scale runs (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


def base_config(full: Optional[bool] = None) -> SimulationConfig:
    """The harness base configuration for quick or full (paper-scale) mode.

    Quick mode: 64-node 8-ary 2-cube, short measurement windows.
    Full mode: the paper's 512-node 8-ary 3-cube, longer windows.
    """
    if full is None:
        full = full_mode()
    if full:
        config = paper_config()
        config.warmup_cycles = 2000
        config.measure_cycles = 10_000
    else:
        config = quick_config()
        config.warmup_cycles = 800
        config.measure_cycles = 4000
    config.injection_limit_fraction = 0.65
    config.ground_truth_interval = 200
    config.seed = DEFAULT_SEED
    return config


def table_spec(table_id: int, full: Optional[bool] = None) -> TableSpec:
    """The (quick or full) spec for one paper table."""
    if table_id not in TABLE_SPECS:
        choices = ", ".join(str(t) for t in sorted(TABLE_SPECS))
        raise ValueError(f"no such table: {table_id}; choose one of {choices}")
    spec = TABLE_SPECS[table_id]
    if full is None:
        full = full_mode()
    return spec if full else quick_spec(spec)


def quick_spec(spec: TableSpec) -> TableSpec:
    """Trim a table spec to the quick benchmark grid.

    Keeps two loads (just below and at saturation), the first two message
    sizes plus ``sl`` when present, and four thresholds.
    """
    load_idx = (1, len(spec.load_fractions) - 1)
    sizes = tuple(s for s in spec.sizes if s in ("s", "l", "sl"))[:3]
    params = dict(spec.pattern_params)
    if spec.pattern == "hot-spot":
        # Preserve the hot node's load multiplier (fraction x num_nodes):
        # the paper's 5% of 512 nodes corresponds to 40% of 64 nodes.
        params["fraction"] = 0.4
    return TableSpec(
        table_id=spec.table_id,
        title=spec.title + " [quick grid]",
        mechanism=spec.mechanism,
        pattern=spec.pattern,
        pattern_params=params,
        sizes=sizes,
        load_fractions=tuple(spec.load_fractions[i] for i in load_idx),
        paper_rates=tuple(spec.paper_rates[i] for i in load_idx),
        thresholds=QUICK_THRESHOLDS,
        saturated_loads=(1,),
    )


#: Saturation rates (flits/cycle/node) measured on the quick 64-node
#: configuration (seed 7, 's' messages, injection_limit_fraction=0.65).
#: Regenerate with ``repro-experiments saturation``.
CALIBRATED_SATURATION_QUICK: Dict[str, float] = {
    "uniform": 0.738,
    "locality": 2.288,
    "bit-reversal": 0.681,
    "perfect-shuffle": 0.438,
    "butterfly": 0.653,
    "hot-spot": 0.163,  # quick grid uses fraction=0.4 (see quick_spec)
}

#: Saturation rates measured on the full 512-node configuration.
CALIBRATED_SATURATION_FULL: Dict[str, float] = {
    "uniform": 0.775,
    "locality": 2.363,
    "bit-reversal": 0.522,
    "perfect-shuffle": 0.416,
    "butterfly": 0.600,
    "hot-spot": 0.275,  # 5% of messages to one node
}


def calibrated_saturation(full: Optional[bool] = None) -> Dict[str, float]:
    if full is None:
        full = full_mode()
    table = CALIBRATED_SATURATION_FULL if full else CALIBRATED_SATURATION_QUICK
    return dict(table)
