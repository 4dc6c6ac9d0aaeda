"""The four workloads, driven through the repo's public entry points only.

Each workload is one class with the same small protocol, which
:mod:`spinelib.runner` sequences:

* ``setup()`` builds what the first timed operation needs and returns it
  (timed as a ``setup_s`` sample; imports are already done);
* ``before_pass(state)`` does untimed per-pass housekeeping;
* ``timed(state, mark)`` is one timed pass; it calls ``mark()`` at chunk
  boundaries (see :func:`spinelib.timing.chunked_wall`) and returns the
  raw results;
* ``assess(state, raw)`` (untimed) condenses them into a
  :class:`PassOutcome` and runs the output checks;
* ``warm_up()`` is the discarded repetition, plus one-off checks.

Simulated inputs are fixed by ``seed``, which becomes ``config.seed``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import statistics
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.campaign.executor as executor
import repro.experiments.report as report
import repro.network.batch as batch_backend
from repro.campaign import (
    CampaignCheckpoint,
    CellJob,
    ResultCache,
    config_hash,
    enumerate_table_jobs,
    render_summary,
    run_campaign,
    summarize_manifest,
)
from repro.experiments.paper_data import PAPER_TABLES, paper_value
from repro.experiments.runner import (
    CellResult,
    TableResult,
    build_cell_config,
    cell_from_stats,
    run_cell,
    run_table,
    saturation_rate,
)
from repro.experiments.spec import TABLE_SPECS, TableSpec, base_config, quick_spec
from repro.metrics.stats import SimulationStats
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator

Mark = Callable[[], None]


def digest_of(payload: Any) -> str:
    """SHA-256 of a JSON-serialisable payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassOutcome:
    """What one pass resolved, for the metrics and the output checks."""

    #: Cell resolutions attempted (the benchmark's unit of operation).
    cells: int = 0
    #: Simulated cell-cycles (served-from-store cells count theirs too).
    cycles: int = 0
    throughputs: List[float] = field(default_factory=list)
    false_detections: int = 0
    injected: int = 0
    #: |regenerated - paper| per cell that has a paper counterpart.
    paper_errors: List[float] = field(default_factory=list)
    #: Digest of everything simulated in the pass (no host telemetry).
    digest: str = ""
    #: Exact work counters, where the public API exposes them.
    counters: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def add_cell(self, cell: CellResult, cycles: int) -> None:
        self.cells += 1
        self.cycles += cycles
        self.throughputs.append(cell.throughput)
        self.false_detections += cell.false_detections
        self.injected += cell.injected

    def add_table(self, table: TableResult, cycles_per_cell: int) -> None:
        paper = PAPER_TABLES.get(table.spec.table_id)
        for threshold, row in table.cells.items():
            for (load_index, size), cell in row.items():
                self.add_cell(cell, cycles_per_cell)
                if paper is not None:
                    self.add_paper_error(
                        table.spec, threshold, load_index, size, cell.percentage
                    )

    def add_paper_error(
        self,
        spec: TableSpec,
        threshold: int,
        load_index: int,
        size: str,
        percentage: float,
    ) -> None:
        """Record |ours - paper| when the paper published this cell."""
        paper = PAPER_TABLES[spec.table_id]
        rate = spec.paper_rates[load_index]
        if (
            threshold not in paper["rows"]
            or size not in paper["sizes"]
            or rate not in paper["rates"]
        ):
            return
        published = paper_value(
            spec.table_id, threshold, paper["rates"].index(rate), size
        )
        self.paper_errors.append(abs(percentage - published))

    def sim_throughput(self) -> float:
        return statistics.fmean(self.throughputs) if self.throughputs else 0.0

    def false_detect_pct(self) -> float:
        return 100.0 * self.false_detections / self.injected if self.injected else 0.0

    def paper_abs_err_pp(self) -> float:
        return statistics.fmean(self.paper_errors) if self.paper_errors else 0.0


def table_digest_payload(tables: Dict[int, TableResult]) -> Dict[str, Any]:
    return {
        str(tid): {
            f"{threshold}:{load_index}:{size}": asdict(cell)
            for threshold, row in table.cells.items()
            for (load_index, size), cell in row.items()
        }
        for tid, table in tables.items()
    }


class Workload:
    """Base: shared scratch handling and the default warm-up."""

    name = "abstract"
    why = ""
    #: Cell resolutions one pass makes (charged as failed when it raises).
    nominal_cells = 0
    #: ``setup()`` repetitions timed up front (``setup_s`` is the median
    #: of these and of the per-pass set-ups).
    setup_reps = 7
    #: Whether each pass needs a freshly built state.
    fresh_state_per_pass = True

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: Flipped by the runner for traced reps (``profile_phases`` is the
        #: one in-tree switch the per-layer run turns on).
        self.traced = False
        #: Cell resolutions made and failed outside timed passes.
        self.extra_attempted = 0
        self.extra_failures: List[str] = []
        #: Numbers only the workload knows, for run-level layer metrics.
        self.trace_extras: Dict[str, float] = {}

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))

    def setup(self) -> Any:
        raise NotImplementedError

    def before_pass(self, state: Any) -> None:
        """Untimed housekeeping before each pass (default: none)."""

    def timed(self, state: Any, mark: Mark) -> Any:
        raise NotImplementedError

    def assess(self, state: Any, raw: Any) -> PassOutcome:
        """Untimed: condense ``raw`` and run the output checks."""
        raise NotImplementedError

    def release(self, state: Any) -> None:
        """Drop a state's on-disk leftovers (default: none)."""

    def warm_up(self) -> None:
        """One discarded repetition (its checks still count)."""
        state = self.setup()
        self.before_pass(state)
        outcome = self.assess(state, self.timed(state, lambda: None))
        self.release(state)
        self.extra_attempted += outcome.cells
        if outcome.failures:
            self.extra_failures.extend(outcome.failures)

    def after_timed_reps(self, serial_wall: float) -> None:
        """Traced runs only: extra one-off measurements (default: none)."""


# ----------------------------------------------------------------------
# cube512-sat
# ----------------------------------------------------------------------
class Cube512Sat(Workload):
    name = "cube512-sat"
    why = (
        "one Table 2 cell on the paper's own 512-node 8-ary 3-cube at "
        "saturation; kernel phases do ~97% of the work, the campaign layer none"
    )
    nominal_cells = 1
    #: Cycles per timing chunk (about 0.1 s of host time at 512 nodes).
    CHUNK = 25

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        base = base_config(full=True)
        base.seed = seed
        self.spec = TABLE_SPECS[2]
        self.threshold, self.size, self.rate = 32, "s", 0.775
        config = build_cell_config(
            base, self.spec, self.threshold, self.size, self.rate
        )
        # Windows cut from the paper's 2000 + 10000 so several reps fit a
        # run; the network is saturated well inside them.
        config.warmup_cycles, config.measure_cycles = (
            (20, 40) if smoke else (100, 400)
        )
        self.config = config

    def setup(self) -> Simulator:
        return Simulator(self.config.replace(profile_phases=self.traced))

    def timed(self, sim: Simulator, mark: Mark) -> SimulationStats:
        chunk = self.CHUNK

        def on_cycle(cycle: int) -> None:
            if cycle % chunk == chunk - 1:
                mark()

        return sim.run(on_cycle=on_cycle)

    def assess(self, sim: Simulator, stats: SimulationStats) -> PassOutcome:
        outcome = PassOutcome(
            digest=digest_of(stats.to_dict(include_perf=False)),
            counters=dict(stats.engine_counters),
        )
        outcome.add_cell(cell_from_stats(stats, self.rate), stats.cycles_run)
        # Load index 3 is the table's saturated column (fraction 1.0).
        outcome.add_paper_error(
            self.spec, self.threshold, 3, self.size, stats.detection_percentage()
        )
        try:
            sim.check_invariants()
        except AssertionError as exc:
            outcome.failures.append(f"check_invariants: {exc}")
        return outcome


# ----------------------------------------------------------------------
# table2-quick
# ----------------------------------------------------------------------
@dataclass
class CampaignState:
    root: Path
    cache: ResultCache
    checkpoint: CampaignCheckpoint


def fresh_campaign_state(root: Path) -> CampaignState:
    return CampaignState(
        root,
        ResultCache(str(root / "cache")),
        CampaignCheckpoint(str(root / "manifest.jsonl"), fresh=True),
    )


class Table2Quick(Workload):
    name = "table2-quick"
    why = (
        "the literal `repro-experiments table 2` quick path (24 cells, "
        "recovery on, so the batch fold bypasses it): kernel, detector "
        "hooks, ground truth and campaign bookkeeping all take part"
    )
    nominal_cells = 24
    setup_reps = 15

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.spec = quick_spec(TABLE_SPECS[2])
        base = base_config(full=False)
        base.seed = seed
        # Quick mode's 800 + 4000 windows cut (cells kept) so several
        # cold passes fit a run.
        base.warmup_cycles, base.measure_cycles = (
            (20, 60) if smoke else (100, 500)
        )
        self.base = base
        self.cycles_per_cell = base.warmup_cycles + base.measure_cycles
        self.reference_json: Optional[str] = None

    def setup(self) -> CampaignState:
        # The job list is what run_table builds first; enumerating it
        # here puts its cost (24 config hashes) into setup_s.
        enumerate_table_jobs(
            self.spec, self.base, saturation_rate(self.base, self.spec)
        )
        return fresh_campaign_state(self.fresh_dir())

    def timed(
        self, state: CampaignState, mark: Mark, jobs: int = 1
    ) -> Tuple[TableResult, str]:
        table = run_table(
            self.spec,
            self.base.replace(profile_phases=self.traced),
            progress=lambda done, total: mark(),
            jobs=jobs,
            cache=state.cache,
            checkpoint=state.checkpoint,
        )
        return table, report.table_to_json(table)

    def assess(
        self, state: CampaignState, raw: Tuple[TableResult, str]
    ) -> PassOutcome:
        table, text = raw
        outcome = PassOutcome(digest=digest_of(table_digest_payload({2: table})))
        outcome.add_table(table, self.cycles_per_cell)
        if self.reference_json is None:
            self.reference_json = text
        elif text != self.reference_json:
            outcome.failures.append("table JSON differs from the first pass")
        total = self.spec.cell_count()
        if (state.cache.hits, state.cache.misses) != (0, total):
            outcome.failures.append(
                f"cold pass saw {state.cache.hits} hits / "
                f"{state.cache.misses} misses, expected 0 / {total}"
            )
        return outcome

    def release(self, state: CampaignState) -> None:
        shutil.rmtree(state.root, ignore_errors=True)

    def warm_up(self) -> None:
        """One warm-up cell (memo caches, allocator), not a whole pass."""
        rate = round(
            self.spec.load_fractions[-1] * saturation_rate(self.base, self.spec), 4
        )
        self.extra_attempted += 1
        run_cell(self.base, self.spec, self.spec.thresholds[0], "s", rate)

    def after_timed_reps(self, serial_wall: float) -> None:
        """The ``--jobs 2`` datapoint (2 workers: this host has 2 CPUs)."""
        state = self.setup()
        start = perf_counter()
        raw = self.timed(state, lambda: None, jobs=2)
        pool_wall = perf_counter() - start
        # The executor shuts its pool down without waiting; the benchmark
        # must not outlive (or be timed against) its own workers.
        for worker in multiprocessing.active_children():
            worker.join()
        outcome = self.assess(state, raw)
        self.release(state)
        self.extra_attempted += outcome.cells
        self.extra_failures.extend(f"jobs=2: {f}" for f in outcome.failures)
        self.trace_extras["campaign.pool.wall_s"] = pool_wall
        self.trace_extras["campaign.pool.efficiency"] = serial_wall / (
            2 * pool_wall
        )


# ----------------------------------------------------------------------
# detgrid-norecovery
# ----------------------------------------------------------------------
_LADDER = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: The 40-cell detector-comparison grid: every batch-shareable mechanism
#: family over its natural slice of the threshold axis.
DETECTOR_GRID: Tuple[Tuple[str, int], ...] = tuple(
    [("ndm", t) for t in _LADDER]
    + [("pdm", t) for t in _LADDER]
    + [("timeout", t) for t in _LADDER]
    + [("source-age", t) for t in (256, 512, 1024, 2048)]
    + [("injection-stall", t) for t in (128, 256, 512, 1024)]
    + [("probe", t) for t in (32, 128)]
)

#: (name, injection rate, VCs per channel, cycles).  Seeds 1-8 wedge the
#: 1-VC torus between cycles 231 and 322, so the parked fast path covers
#: ~70% of its run at every seed; with 2 VCs at 0.8 the wedge lands
#: anywhere from cycle 1146 to past 4000 and wall time varies 3.5x by
#: seed.  What a wedged cycle costs still depends on how many messages
#: the wedge caught (72-114 over five seeds, 2x in the probe phase), so
#: the wedged regime runs a third as long as the steady flowing one.
DETGRID_REGIMES: Tuple[Tuple[str, float, int, int], ...] = (
    ("wedged", 0.6, 1, 1000),
    ("flowing", 0.4, 2, 3000),
)
#: Cycle divisor for ``--smoke``.
DETGRID_SMOKE_FACTOR = 10


def preferred_engine(config: SimulationConfig) -> str:
    """``"batch"`` while the config accepts that name, else its default."""
    try:
        config.replace(engine="batch").validate()
    except ValueError:
        return config.engine
    return "batch"


DetgridState = Tuple[List[CellJob], CampaignState]


class DetgridNoRecovery(Workload):
    name = "detgrid-norecovery"
    why = (
        "80-cell detector-comparison campaign without recovery on an 8x8 "
        "torus (one wedged regime, one flowing): plan_batches, the batch "
        "observer and vecmove do the work, the per-cell kernel almost none"
    )
    nominal_cells = len(DETGRID_REGIMES) * len(DETECTOR_GRID)
    setup_reps = 15
    #: Cells per group re-run solo in the warm-up and compared.
    SAMPLES_PER_GROUP = 3

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.cycle_factor = DETGRID_SMOKE_FACTOR if smoke else 1
        self.engine = preferred_engine(SimulationConfig())
        self.last_cells: Dict[str, CellResult] = {}

    def build_jobs(self) -> List[CellJob]:
        jobs = []
        for load_index, (regime, rate, vcs, cycles) in enumerate(DETGRID_REGIMES):
            for mechanism, threshold in DETECTOR_GRID:
                config = SimulationConfig(
                    radix=8,
                    dimensions=2,
                    vcs_per_channel=vcs,
                    warmup_cycles=0,
                    measure_cycles=cycles // self.cycle_factor,
                    seed=self.seed,
                    recovery="none",
                    engine=self.engine,
                    ground_truth_interval=0,
                    # Off because the fold is not bit-identical with it on
                    # (seed 803, wedged, ndm th=128: one detection flips
                    # true -> false).  Simulator._truth_at caches the
                    # deadlocked set per cycle, mid-phase; on a shared
                    # trajectory another cell's earlier detection in the
                    # same cycle primes it with an older snapshot than the
                    # solo run takes.  A src/ fix is a later issue.
                    ground_truth_on_detection=False,
                    profile_phases=self.traced,
                )
                config.traffic.injection_rate = rate
                config.detector = DetectorConfig(
                    mechanism=mechanism, threshold=threshold
                )
                jobs.append(
                    CellJob(
                        key=f"detgrid/{regime}/{mechanism}/th{threshold}",
                        table_id=0,
                        threshold=threshold,
                        load_index=load_index,
                        size="s",
                        rate=rate,
                        config=config,
                        config_hash=config_hash(config),
                    )
                )
        return jobs

    def setup(self) -> DetgridState:
        return self.build_jobs(), fresh_campaign_state(self.fresh_dir())

    def timed(self, state: DetgridState, mark: Mark) -> Dict[str, Any]:
        jobs, store = state
        return executor.execute_jobs(
            jobs,
            num_workers=1,
            cache=store.cache,
            checkpoint=store.checkpoint,
            progress=lambda done, total: mark(),
        )

    def assess(self, state: DetgridState, outcomes: Dict[str, Any]) -> PassOutcome:
        self.last_cells = {key: o.cell for key, o in outcomes.items()}
        outcome = PassOutcome(
            digest=digest_of(
                {key: asdict(cell) for key, cell in self.last_cells.items()}
            )
        )
        for job in state[0]:
            resolved = outcomes[job.key]
            outcome.add_cell(resolved.cell, job.config.measure_cycles)
            if resolved.source != "run":
                outcome.failures.append(f"{job.key} served from {resolved.source}")
        return outcome

    def release(self, state: DetgridState) -> None:
        shutil.rmtree(state[1].root, ignore_errors=True)

    def warm_up(self) -> None:
        super().warm_up()
        jobs = self.build_jobs()
        per_group = len(DETECTOR_GRID)
        # Folding is all-or-nothing per host: plan_batches returns every
        # cell as a single when numpy (or the batch engine) is absent.
        folds = self.engine == "batch" and batch_backend.HAVE_NUMPY
        groups, singles = batch_backend.plan_batches([job.config for job in jobs])
        expected = (len(DETGRID_REGIMES), 0) if folds else (0, len(jobs))
        if (len(groups), len(singles)) != expected:
            self.extra_failures.append(
                f"plan_batches gave {len(groups)} groups / {len(singles)} "
                f"singles, expected {expected[0]} / {expected[1]}"
            )
        # Re-run a spread of cells solo: equal results prove the fold.
        solo_walls = []
        stride = per_group // self.SAMPLES_PER_GROUP
        for group in range(len(DETGRID_REGIMES)):
            for sample in range(self.SAMPLES_PER_GROUP):
                job = jobs[group * per_group + sample * stride + stride // 2]
                self.extra_attempted += 1
                start = perf_counter()
                stats = Simulator(job.config).run()
                solo_walls.append(perf_counter() - start)
                if cell_from_stats(stats, job.rate) != self.last_cells[job.key]:
                    self.extra_failures.append(
                        f"{job.key}: solo run differs from the campaign's cell"
                    )
        self.trace_extras["solo_cell_s"] = statistics.fmean(solo_walls)


# ----------------------------------------------------------------------
# campaign-replay
# ----------------------------------------------------------------------
@dataclass
class ReplayState:
    root: Path
    #: Manifest written by the populate pass (never touched again).
    populated: Path
    #: ``table_to_json`` of every table, from the populate pass.
    reference: Dict[int, str]


@dataclass
class ReplayRaw:
    cache: ResultCache
    warm: Dict[int, TableResult]
    resumed: Dict[int, TableResult]
    warm_json: Dict[int, str]
    resumed_json: Dict[int, str]
    resume_sources: Dict[str, int]
    caught: List[warnings.WarningMessage]


class CampaignReplay(Workload):
    name = "campaign-replay"
    why = (
        "warm-cache re-run, --resume and re-render of all eight quick "
        "tables (192 cells): planning, hashing, cache reads and assembly "
        "do all the work, the kernel none"
    )
    #: The populate pass simulates 192 cells, so it is repeated least.
    setup_reps = 3
    fresh_state_per_pass = False

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        # Smoke keeps one table per mechanism family (pdm, ndm, probe).
        table_ids = (1, 4, 8) if smoke else sorted(TABLE_SPECS)
        self.specs = [quick_spec(TABLE_SPECS[tid]) for tid in table_ids]
        base = base_config(full=False)
        base.seed = seed
        # Tiny windows: the store's content is beside the point, and the
        # populate pass (setup_s) has to fit the run several times.
        base.warmup_cycles, base.measure_cycles = (5, 15) if smoke else (10, 40)
        self.base = base
        self.cycles_per_cell = base.warmup_cycles + base.measure_cycles
        self.total = sum(spec.cell_count() for spec in self.specs)
        self.nominal_cells = 2 * self.total

    def render_all(self, tables: Dict[int, TableResult]) -> Dict[int, str]:
        return {tid: report.table_to_json(t) for tid, t in tables.items()}

    def setup(self) -> ReplayState:
        root = self.fresh_dir()
        populated = root / "populated.jsonl"
        tables = run_campaign(
            self.specs,
            self.base,
            cache=ResultCache(str(root / "cache")),
            checkpoint=CampaignCheckpoint(str(populated), fresh=True),
        )
        return ReplayState(root, populated, self.render_all(tables))

    def before_pass(self, state: ReplayState) -> None:
        # --resume appends a header line per table to the manifest it
        # reads; replaying from a copy keeps every pass's input equal.
        shutil.copyfile(state.populated, state.root / "resume.jsonl")

    def timed(self, state: ReplayState, mark: Mark) -> ReplayRaw:
        root = state.root
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = ResultCache(str(root / "cache"))
            warm = run_campaign(
                self.specs,
                self.base,
                cache=cache,
                checkpoint=CampaignCheckpoint(str(root / "warm.jsonl"), fresh=True),
            )
            resumed = run_campaign(
                self.specs,
                self.base,
                checkpoint=CampaignCheckpoint(str(root / "resume.jsonl")),
                resume=True,
            )
            summary = summarize_manifest(str(root / "resume.jsonl"))
            render_summary(summary)
            return ReplayRaw(
                cache,
                warm,
                resumed,
                self.render_all(warm),
                self.render_all(resumed),
                dict(summary.by_source),
                caught,
            )

    def assess(self, state: ReplayState, raw: ReplayRaw) -> PassOutcome:
        outcome = PassOutcome(digest=digest_of(table_digest_payload(raw.warm)))
        for tables in (raw.warm, raw.resumed):
            for table in tables.values():
                outcome.add_table(table, self.cycles_per_cell)
        if raw.warm_json != state.reference:
            outcome.failures.append("warm-cache tables differ from the populate pass")
        if raw.resumed_json != state.reference:
            outcome.failures.append("resumed tables differ from the populate pass")
        if (raw.cache.hits, raw.cache.misses) != (self.total, 0):
            outcome.failures.append(
                f"warm pass saw {raw.cache.hits} hits / {raw.cache.misses} "
                f"misses, expected {self.total} / 0"
            )
        warm_sources = dict(
            summarize_manifest(str(state.root / "warm.jsonl")).by_source
        )
        if warm_sources != {"cache": self.total}:
            outcome.failures.append(f"warm pass sources: {warm_sources}")
        # The resumed manifest must still hold the populate pass's 192
        # "run" records and nothing newer: no cell was re-resolved.
        if raw.resume_sources != {"run": self.total}:
            outcome.failures.append(f"--resume sources: {raw.resume_sources}")
        for warning in raw.caught:
            if issubclass(warning.category, RuntimeWarning):
                outcome.failures.append(f"RuntimeWarning: {warning.message}")
        return outcome

    def release(self, state: ReplayState) -> None:
        shutil.rmtree(state.root, ignore_errors=True)


WORKLOADS: Sequence[type] = (
    Cube512Sat,
    Table2Quick,
    DetgridNoRecovery,
    CampaignReplay,
)

WORKLOADS_BY_NAME = {cls.name: cls for cls in WORKLOADS}
