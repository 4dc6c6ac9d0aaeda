"""The shapes of the paper's Tables 1-7 and the design ablations, at tier-1 size.

Every claim is checked at three seeds on a 4x4 torus with 200 + 500-cycle
windows, where a cell costs ~50 ms instead of the seconds a quick-grid
cell (8x8, 800 + 4000 cycles) takes.  The tables keep the quick grid's
patterns and its two loads (78.5 % of saturation and saturation), on
thresholds {2, 32} and ``s`` messages, the size with the most messages
per window.  Slacks and bounds are fitted to this size, where one
detected ``s`` message moves a cell by ~0.15 percentage points; the
quick-grid numbers are in EXPERIMENTS.md.
"""

from statistics import mean
from typing import Dict, Tuple

import pytest

from repro.campaign.jobs import canonical_config_json
from repro.experiments.runner import CellResult, build_cell_config, cell_from_stats
from repro.experiments.spec import TABLE_SPECS, base_config, quick_spec
from repro.metrics.stats import SimulationStats
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

SEEDS = (3, 17, 91)
THRESHOLDS = (2, 32)
LOW, SAT = 0, 1  # quick_spec's load indices: 78.5 % of saturation, saturation

#: Saturation rate (flits/cycle/node) of each pattern on the 4x4 torus
#: with ``s`` messages, read off a 0.2-step ``measure_throughput`` sweep
#: (seeds 7 and 11, 500 + 3000 cycles): between the last rate whose
#: accepted throughput stays within 5 % of the offered load and the next.
SATURATION = {
    "uniform": 1.5,
    "locality": 2.2,
    "bit-reversal": 1.75,
    "perfect-shuffle": 1.1,
    "butterfly": 1.7,
    "hot-spot": 0.65,
}

_RUNS: Dict[str, SimulationStats] = {}


def run(config: SimulationConfig) -> SimulationStats:
    """One simulation, shared by every claim that builds the same config
    (a config fixes its run, so sharing changes no outcome)."""
    key = canonical_config_json(config)
    if key not in _RUNS:
        _RUNS[key] = Simulator(config).run()
    return _RUNS[key]


def small_base(seed: int) -> SimulationConfig:
    config = base_config(full=False)
    config.radix = 4
    config.warmup_cycles = 200
    config.measure_cycles = 500
    config.seed = seed
    return config


def cell(table_id: int, seed: int, threshold: int, load: int, size: str = "s") -> CellResult:
    spec = quick_spec(TABLE_SPECS[table_id])
    rate = SATURATION[spec.pattern] * spec.load_fractions[load]
    config = build_cell_config(small_base(seed), spec, threshold, size, rate)
    return cell_from_stats(run(config), rate)


def table(table_id: int, seed: int) -> Dict[Tuple[int, int], CellResult]:
    """One table's small grid: (threshold, load) -> cell."""
    return {
        (threshold, load): cell(table_id, seed, threshold, load)
        for threshold in THRESHOLDS
        for load in (LOW, SAT)
    }


@pytest.mark.parametrize("table_id", range(1, 8))
def test_table_shape(table_id):
    """Sane cells, and detection falls from Th 2 to Th 32 at each load
    without an actual deadlock (slack 2 points: on some seeds hot-spot's
    saturated Th 32 cell sits ~1.5 above its Th 2 cell).  Averaged over the
    seeds, saturation detects as much as 78.5 % of it at Th 2, within half
    a point, except under hot-spot, whose hot region saturates at both."""
    for seed in SEEDS:
        cells = table(table_id, seed)
        for c in cells.values():
            assert 0.0 <= c.percentage <= 100.0
            assert c.injected > 0 and c.throughput > 0.0
        for load in (LOW, SAT):
            low, high = cells[(2, load)], cells[(32, load)]
            if not (low.had_true_deadlock or high.had_true_deadlock):
                assert high.percentage <= low.percentage + 2.0, (seed, load)
    if TABLE_SPECS[table_id].pattern != "hot-spot":
        below, saturated = (
            mean(table(table_id, seed)[(2, load)].percentage for seed in SEEDS)
            for load in (LOW, SAT)
        )
        assert saturated >= below - 0.5, (below, saturated)


def test_pdm_detects_long_messages_no_less_below_saturation():
    """Paper Sec. 4.2: the PDM's threshold must grow with message length,
    so at Th 8 below saturation ``l`` is detected about as often as ``s``
    or more.  One ``l`` message is ~0.7 points here, so the seeds are
    averaged and the slack is half a point."""
    short = mean(cell(1, seed, 8, LOW, "s").percentage for seed in SEEDS)
    longer = mean(cell(1, seed, 8, LOW, "l").percentage for seed in SEEDS)
    assert longer >= short - 0.5, (short, longer)


def test_ndm_not_worse_than_pdm():
    """Summed over the shared Table 1/2 cells and the seeds, NDM detects
    at most 1.5x what PDM does: the paper reports ~10x fewer, this
    substrate ~1x (EXPERIMENTS.md), and at this size the ratio swings
    between 0.65 and 1.27 from one seed triple to the next."""
    pdm = sum(c.percentage for seed in SEEDS for c in table(1, seed).values())
    ndm = sum(c.percentage for seed in SEEDS for c in table(2, seed).values())
    assert ndm <= 1.5 * pdm, (pdm, ndm)


def test_bit_reversal_top_threshold_clean_below_saturation():
    for seed in SEEDS:
        assert cell(4, seed, THRESHOLDS[-1], LOW).percentage <= 0.5, seed


def test_butterfly_fixed_points_stay_silent():
    """Half the butterfly's nodes are fixed points, so accepted load is
    about half the nominal rate."""
    for seed in SEEDS:
        c = cell(6, seed, THRESHOLDS[0], LOW)
        assert c.throughput <= 0.75 * c.injection_rate, (seed, c)


def test_ndm_th32_worst_case_across_patterns():
    """NDM at the paper's recommended Th 32 keeps saturated detection low
    for every pattern of Tables 2-6."""
    for seed in SEEDS:
        worst = max(cell(t, seed, 32, SAT).percentage for t in range(2, 7))
        assert worst <= 1.0, (seed, worst)


def test_ndm_th32_holds_across_lengths():
    """Paper Sec. 4.2: one NDM threshold serves every message length below
    saturation."""
    for seed in SEEDS:
        for size in ("s", "l", "sl"):
            assert cell(2, seed, 32, LOW, size).percentage <= 1.0, (seed, size)


# ----------------------------------------------------------------------
# Ablations over the design choices DESIGN.md calls out
# ----------------------------------------------------------------------
def saturated(seed: int) -> SimulationConfig:
    """NDM at Th 8 on saturated uniform ``sl`` traffic: the ablations' base."""
    spec = quick_spec(TABLE_SPECS[2])
    return build_cell_config(small_base(seed), spec, 8, "sl", SATURATION["uniform"])


def test_injection_limitation_holds_throughput_past_saturation():
    """Without detection or recovery, twice the saturation rate degrades
    an unlimited network; the limitation holds the plateau (paper [11, 12])."""
    for seed in SEEDS:
        throughput = {}
        for fraction in (0.65, None):
            config = saturated(seed)
            config.traffic.injection_rate = 2 * SATURATION["uniform"]
            config.traffic.lengths = "s"
            config.injection_limit_fraction = fraction
            config.detector.mechanism = "none"
            config.recovery = "none"
            throughput[fraction] = run(config).throughput()
        assert throughput[0.65] >= throughput[None] - 0.05, (seed, throughput)


def test_one_virtual_channel_detects_most():
    for seed in SEEDS:
        one = saturated(seed)
        one.vcs_per_channel = 1
        detected = run(one).detection_percentage()
        assert detected >= run(saturated(seed)).detection_percentage(), seed


def test_every_recovery_scheme_keeps_delivering():
    for seed in SEEDS:
        for scheme in ("progressive", "progressive-reinject", "regressive"):
            config = saturated(seed)
            config.recovery = scheme
            throughput = run(config).throughput()
            assert throughput > 0.5 * config.traffic.injection_rate, (seed, scheme)


def without_recovery(seed: int, **detector) -> float:
    """Detected % of the ablations' base with no recovery, so that every
    detector variant observes the same trajectory."""
    config = saturated(seed)
    config.recovery = "none"
    for name, value in detector.items():
        setattr(config.detector, name, value)
    return run(config).detection_percentage()


def test_t1_barely_moves_detection():
    """The paper sets t1 = 1 cycle; it is t2 that must be tuned.  On one
    trajectory t1 = 2 stays within ~4 ``sl`` messages of t1 = 1.  (At the
    base's t2 = 8, t1 = 4 is no longer small: it can cut detection by
    1.6 points.)"""
    for seed in SEEDS:
        detected = [without_recovery(seed, t1=t1) for t1 in (1, 2)]
        assert abs(detected[0] - detected[1]) <= 1.0, (seed, detected)


def test_exact_root_adjacency_not_above_pdm():
    """``ndm-precise`` adds exact root adjacency to the PDM's all-inactive
    condition, so on one trajectory it never marks more messages."""
    for seed in SEEDS:
        precise = without_recovery(seed, mechanism="ndm-precise")
        assert precise <= without_recovery(seed, mechanism="pdm"), seed
