"""The per-layer side of the benchmark: probes and the metric table.

Layers are this repo's packages on the table-regeneration path:
``experiments`` → ``campaign`` → ``metrics`` / ``network`` → ``core`` /
``analysis`` / ``traffic``.  ``faults``, ``verify``, ``lint`` and
``figures`` are developer tools off that path and are not measured.

:data:`LAYER_METRICS` is the single declaration of every per-layer
metric — name, unit, direction, the end-to-end metric and workload it is
expected to move, the probes it needs and how it is computed from one
traced rep.  ``BENCHMARK.json``'s ``per_layer`` list mirrors it (a
self-test keeps the two equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from spinelib.tracing import Probe, Tracer

#: Detector hooks wrapped on every registry-built detector (solo runs;
#: the batch observer is built directly and is not injectable).
DETECTOR_HOOKS = (
    "on_blocked_attempt",
    "on_message_routed",
    "on_vc_released",
    "on_message_removed",
    "blocked_deadline",
    "periodic_check",
    "probe_phase",
)

PHASES = ("checks", "probes", "routing", "movement", "injection", "generation")

ENGINE_COUNTERS = (
    "route_attempts",
    "route_parked_skips",
    "route_parks",
    "move_visits",
    "move_parked_skips",
    "move_parks",
    "deadline_wakeups",
)


# ----------------------------------------------------------------------
# Harvesters (run after the wrapped call returns)
# ----------------------------------------------------------------------
def _after_plan(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.add("campaign.plan.jobs", len(result[1]))


def _after_cache_get(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.add(
        "campaign.cache.hits" if result is not None else "campaign.cache.misses",
        1,
    )


def _after_group(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    groups, singles = result
    tracer.add("campaign.group.groups", len(groups))
    tracer.add("campaign.group.cells_folded", sum(len(g) for g in groups))
    tracer.add("campaign.group.singles", len(singles))


def _after_run(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    stats = args[0].stats
    for phase, seconds in stats.phase_time.items():
        tracer.add(f"network.phase.{phase}.s", seconds)
    for counter, count in stats.engine_counters.items():
        tracer.add(f"network.{counter}", count)


def _after_batch_run(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    batch = args[0]
    tracer.add("network.batch.cells", len(batch.cells))
    tracer.add("network.batch.vectorized", int(bool(batch.vectorized)))


def _after_make_detector(
    tracer: Tracer, args: Tuple[Any, ...], result: Any
) -> None:
    for hook in DETECTOR_HOOKS:
        try:
            bound = getattr(result, hook)
        except AttributeError as exc:
            tracer.note_unresolved(f"core.{hook}", f"detector.{hook}", exc)
            continue
        setattr(result, hook, tracer.wrap_hot(f"core.{hook}", bound))


def _after_workload_init(
    tracer: Tracer, args: Tuple[Any, ...], result: Any
) -> None:
    # The generation phase calls ``workload.pattern.destination`` directly
    # (``Workload.maybe_generate`` is not on the kernel path), so that is
    # the traffic layer's unit of work.
    try:
        pattern = args[0].pattern
        bound = pattern.destination
    except AttributeError as exc:
        tracer.note_unresolved("traffic.destination", "pattern.destination", exc)
        return
    pattern.destination = tracer.wrap_hot("traffic.destination", bound)


PROBES: List[Probe] = [
    Probe("experiments.render", [
        "repro.experiments.report:table_to_json",
        "repro.experiments.report:render_table",
        "repro.campaign.checkpoint:render_summary",
    ]),
    Probe("campaign.plan", ["repro.campaign.engine:enumerate_table_jobs"],
          post=_after_plan),
    Probe("campaign.hash", ["repro.campaign.jobs:config_hash"]),
    Probe("campaign.cache.get", ["repro.campaign.cache:ResultCache.get"],
          post=_after_cache_get),
    Probe("campaign.cache.put", ["repro.campaign.cache:ResultCache.put"]),
    Probe("campaign.manifest.record",
          ["repro.campaign.checkpoint:CampaignCheckpoint.record_cell"]),
    Probe("campaign.manifest.load", [
        "repro.campaign.checkpoint:CampaignCheckpoint.completed",
        "repro.campaign.checkpoint:summarize_manifest",
    ]),
    Probe("campaign.group", ["repro.network.batch:plan_batches"],
          post=_after_group),
    Probe("campaign.assemble", ["repro.campaign.engine:assemble_table"]),
    Probe("campaign.execute", [
        "repro.campaign.engine:execute_jobs",
        "repro.campaign.executor:execute_jobs",
    ]),
    Probe("metrics.to_dict", ["repro.metrics.stats:SimulationStats.to_dict"]),
    Probe("metrics.from_dict",
          ["repro.metrics.stats:SimulationStats.from_dict"]),
    Probe("network.build", ["repro.network.simulator:Simulator.__init__"]),
    Probe("network.run", ["repro.network.simulator:Simulator.run"],
          post=_after_run),
    Probe("network.batch.build",
          ["repro.network.batch:BatchSimulator.__init__"]),
    Probe("network.batch.run", ["repro.network.batch:BatchSimulator.run"],
          post=_after_batch_run),
    Probe("network.batch.fold", ["repro.network.batch:BatchObserver.fold_cell"]),
    Probe("core.make_detector", ["repro.core.registry:make_detector"],
          post=_after_make_detector),
    Probe("analysis.find_deadlocked", [
        "repro.analysis.deadlock:find_deadlocked",
        "repro.network.simulator:find_deadlocked",
    ], hot=True),
    Probe("traffic.workload", ["repro.traffic.workload:Workload.__init__"],
          post=_after_workload_init),
]


# ----------------------------------------------------------------------
# One traced rep, as the metric functions see it
# ----------------------------------------------------------------------
class RepView:
    def __init__(
        self,
        tally: Dict[str, List[float]],
        setup_tally: Dict[str, List[float]],
        value: Dict[str, float],
        wall: float,
        outcome: Any,
        extras: Dict[str, float],
    ) -> None:
        self._tally = tally
        self._setup_tally = setup_tally
        self._value = value
        self.wall = wall
        self.outcome = outcome
        self.extras = extras

    def calls(self, stem: str) -> float:
        return self._tally.get(stem, (0, 0.0, 0.0))[0]

    def total(self, stem: str) -> float:
        return self._tally.get(stem, (0, 0.0, 0.0))[1]

    def self_s(self, stem: str) -> float:
        return self._tally.get(stem, (0, 0.0, 0.0))[2]

    def setup_total(self, stem: str) -> float:
        """Seconds ``stem`` took in the set-up that preceded the pass."""
        return self._setup_tally.get(stem, (0, 0.0, 0.0))[1]

    def val(self, key: str) -> float:
        return self._value.get(key, 0.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hooks_s(r: RepView) -> float:
    return sum(r.total(f"core.{hook}") for hook in DETECTOR_HOOKS)


def _unattributed(r: RepView) -> float:
    return r.total("network.run") - sum(
        r.val(f"network.phase.{phase}.s") for phase in PHASES
    )


def _skip_frac(r: RepView, skips: str, work: str) -> float:
    skipped = r.val(f"network.{skips}")
    return ratio(skipped, skipped + r.val(f"network.{work}"))


def _fold_ratio(r: RepView) -> float:
    solo = r.extras.get("solo_cell_s", 0.0)
    return ratio(solo * r.val("network.batch.cells"), r.total("network.batch.run"))


MetricFn = Callable[[RepView], float]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric and workload this is expected to move.
    moves: str
    #: Probe stems it reads; any of them missing -> the metric is null.
    needs: Tuple[str, ...] = ()
    #: Computed from one traced rep; ``None`` marks a run-level metric
    #: the runner fills in.
    fn: Optional[MetricFn] = None


def _timed(stem: str, moves: str, *, self_time: bool = False) -> LayerMetric:
    suffix = "self_s" if self_time else "s"
    read: MetricFn = (
        (lambda r: r.self_s(stem)) if self_time else (lambda r: r.total(stem))
    )
    return LayerMetric(f"{stem}.{suffix}", "s", "lower", moves, (stem,), read)


def _calls(stem: str, moves: str) -> LayerMetric:
    return LayerMetric(
        f"{stem}.calls", "count", "lower", moves, (stem,),
        lambda r: r.calls(stem),
    )


def _harvest(
    key: str, moves: str, needs: str, better: str = "lower", unit: str = "count"
) -> LayerMetric:
    return LayerMetric(key, unit, better, moves, (needs,), lambda r: r.val(key))


_REPLAY = "wall_s @ campaign-replay"
_REPLAY_T2 = "wall_s @ campaign-replay; overhead_frac @ table2-quick"
_KERNEL = "sim_cycles_per_s @ cube512-sat, table2-quick"
_PARK = "sim_cycles_per_s @ detgrid-norecovery (wedged), cube512-sat (overhead)"
_BATCH = "wall_s @ detgrid-norecovery only"
_HOOKS = "sim_cycles_per_s @ table2-quick (saturated load)"
_TRUTH = "sim_cycles_per_s @ table2-quick, cube512-sat"

LAYER_METRICS: List[LayerMetric] = [
    # --- experiments ---------------------------------------------------
    LayerMetric(
        "experiments.paper_abs_err_pp", "pp", "lower",
        "drift alarm beside any speed-up @ table2-quick, cube512-sat",
        fn=lambda r: r.outcome.paper_abs_err_pp(),
    ),
    _timed("experiments.render", "wall_s @ campaign-replay, table2-quick"),
    LayerMetric(
        "experiments.false_detect_pct", "%", "lower",
        "the paper's quality claim; exact per seed @ all",
        fn=lambda r: r.outcome.false_detect_pct(),
    ),
    LayerMetric(
        "experiments.sim_throughput", "flits/cycle/node", "higher",
        "mean accepted traffic over the pass's cells; exact per seed @ all",
        fn=lambda r: r.outcome.sim_throughput(),
    ),
    LayerMetric(
        "experiments.failed_frac", "fraction", "lower",
        "failed / attempted cell resolutions @ all",
    ),
    # --- campaign --------------------------------------------------------
    _timed("campaign.plan", _REPLAY_T2),
    _harvest("campaign.plan.jobs", _REPLAY_T2, "campaign.plan"),
    _timed("campaign.hash", _REPLAY_T2),
    _calls("campaign.hash", _REPLAY_T2),
    _timed("campaign.cache.get", _REPLAY),
    _timed("campaign.cache.put", "overhead_frac @ table2-quick, detgrid-norecovery"),
    _harvest("campaign.cache.hits", _REPLAY, "campaign.cache.get", "higher"),
    _harvest("campaign.cache.misses", _REPLAY, "campaign.cache.get"),
    _timed("campaign.manifest.record", _REPLAY_T2),
    _timed("campaign.manifest.load", _REPLAY),
    _timed("campaign.group", _BATCH),
    _harvest("campaign.group.groups", _BATCH, "campaign.group", "higher"),
    _harvest("campaign.group.cells_folded", _BATCH, "campaign.group", "higher"),
    _harvest("campaign.group.singles", _BATCH, "campaign.group"),
    _timed("campaign.assemble", _REPLAY),
    _timed("campaign.execute", _REPLAY_T2, self_time=True),
    LayerMetric(
        "campaign.overhead_frac", "fraction", "lower",
        "wall_s @ table2-quick (flat @ cube512-sat)",
        ("network.build", "network.run"),
        lambda r: ratio(r.wall - r.val("simulation.top_s"), r.wall),
    ),
    LayerMetric(
        "campaign.cells_per_s", "1/s", "higher", _REPLAY_T2,
        fn=lambda r: ratio(r.outcome.cells, r.wall),
    ),
    LayerMetric(
        "campaign.pool.wall_s", "s", "lower",
        "--jobs 2 wall @ table2-quick (traced run only)",
    ),
    LayerMetric(
        "campaign.pool.efficiency", "fraction", "higher",
        "serial wall / (2 x jobs=2 wall) @ table2-quick",
    ),
    # --- metrics ---------------------------------------------------------
    _timed("metrics.to_dict", _REPLAY_T2),
    _calls("metrics.to_dict", _REPLAY_T2),
    _timed("metrics.from_dict", _REPLAY_T2),
    _calls("metrics.from_dict", _REPLAY_T2),
    # --- network ---------------------------------------------------------
    LayerMetric(
        "network.build.s", "s", "lower",
        "setup_s @ cube512-sat; wall_s @ table2-quick",
        ("network.build",),
        # Built as set-up on cube512-sat, inside the pass elsewhere.
        lambda r: r.total("network.build") + r.setup_total("network.build"),
    ),
    _timed("network.run", _KERNEL),
    *[
        _harvest(f"network.phase.{phase}.s", _KERNEL, "network.run", unit="s")
        for phase in PHASES
    ],
    LayerMetric(
        "network.phase.unattributed.s", "s", "lower", _KERNEL,
        ("network.run",), _unattributed,
    ),
    *[
        _harvest(f"network.{counter}", _PARK, "network.run")
        for counter in ENGINE_COUNTERS
    ],
    LayerMetric(
        "network.route_park_skip_frac", "fraction", "higher", _PARK,
        ("network.run",),
        lambda r: _skip_frac(r, "route_parked_skips", "route_attempts"),
    ),
    LayerMetric(
        "network.move_park_skip_frac", "fraction", "higher", _PARK,
        ("network.run",),
        lambda r: _skip_frac(r, "move_parked_skips", "move_visits"),
    ),
    LayerMetric(
        "network.us_per_route_attempt", "us", "lower", _KERNEL,
        ("network.run",),
        lambda r: ratio(
            1e6 * r.val("network.phase.routing.s"), r.val("network.route_attempts")
        ),
    ),
    LayerMetric(
        "network.us_per_move_visit", "us", "lower", _KERNEL,
        ("network.run",),
        lambda r: ratio(
            1e6 * r.val("network.phase.movement.s"), r.val("network.move_visits")
        ),
    ),
    _timed("network.batch.run", _BATCH),
    _timed("network.batch.fold", _BATCH),
    LayerMetric(
        "network.batch.cells_per_run", "count", "higher", _BATCH,
        ("network.batch.run",),
        lambda r: ratio(r.val("network.batch.cells"), r.calls("network.batch.run")),
    ),
    _harvest("network.batch.vectorized", _BATCH, "network.batch.run", "higher"),
    LayerMetric(
        "network.batch.fold_ratio", "ratio", "higher", _BATCH,
        ("network.batch.run",), _fold_ratio,
    ),
    # --- core ------------------------------------------------------------
    _calls("core.on_blocked_attempt", _HOOKS),
    _timed("core.on_blocked_attempt", _HOOKS),
    _calls("core.on_message_routed", _HOOKS),
    _calls("core.on_vc_released", _HOOKS),
    _calls("core.blocked_deadline", _HOOKS),
    _calls("core.periodic_check", _HOOKS),
    _calls("core.probe_phase", _HOOKS),
    LayerMetric(
        "core.hooks.s", "s", "lower", _HOOKS, ("core.make_detector",), _hooks_s
    ),
    LayerMetric(
        "core.hooks.frac", "fraction", "lower", _HOOKS,
        ("core.make_detector", "network.run"),
        lambda r: ratio(_hooks_s(r), r.total("network.run")),
    ),
    # --- analysis ----------------------------------------------------------
    _calls("analysis.find_deadlocked", _TRUTH),
    _timed("analysis.find_deadlocked", _TRUTH),
    LayerMetric(
        "analysis.truth_frac", "fraction", "lower", _TRUTH,
        ("analysis.find_deadlocked", "network.run"),
        lambda r: ratio(r.total("analysis.find_deadlocked"), r.total("network.run")),
    ),
    # --- traffic -----------------------------------------------------------
    _calls("traffic.destination", "inside network.phase.generation.s"),
    _timed("traffic.destination", "inside network.phase.generation.s"),
    # --- the tracer itself ---------------------------------------------------
    LayerMetric(
        "trace.overhead_frac", "fraction", "lower",
        "traced wall / untraced wall - 1, per workload",
    ),
    LayerMetric(
        "trace.unresolved", "count", "lower",
        "instrumented names that no longer resolve (their metrics read null)",
    ),
]

#: Hooks and harvest-only probes inherit their parent's availability.
_STEM_PARENTS = {
    **{f"core.{hook}": "core.make_detector" for hook in DETECTOR_HOOKS},
    "traffic.destination": "traffic.workload",
}


def unavailable(metric: LayerMetric, missing: "set[str]") -> bool:
    """Whether a probe this metric needs did not resolve."""
    for stem in metric.needs:
        if stem in missing or _STEM_PARENTS.get(stem) in missing:
            return True
    return False
