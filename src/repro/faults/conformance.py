"""Conformance harness: detectors vs. the ground-truth oracle under faults.

For every (fault schedule, detector, engine) combination the harness runs
one simulation, sweeping the fault-aware wait-graph oracle
(:func:`repro.analysis.deadlock.find_deadlocked`) after every cycle, and
grades the detector's events against it:

* **true positive** — a detection event raised while the simulator's
  in-situ oracle classified the message as truly deadlocked
  (``DetectionEvent.truly_deadlocked``);
* **false positive** — a detection event on a message the oracle did not
  have in its deadlocked set at that cycle;
* **missed** (false negative) — a message still truly deadlocked when the
  run ends that no detector ever marked;
* **detection latency** — cycles from the oracle first placing a message
  in the deadlocked set (its current uninterrupted stretch) to the
  detection event, over true positives.

The verdict is written into the run's :class:`SimulationStats`
(``oracle_*`` fields), so it flows through ``to_dict`` and therefore into
the behavioural digest: the harness runs every case under *both* engines
and asserts the digests match — the fault subsystem's equivalence gate.

Results integrate with the campaign infrastructure: cells are cached in a
:class:`~repro.campaign.cache.ResultCache` keyed by the same
``config_hash`` campaigns use (fault schedules live inside the config, so
the key covers them), and optionally appended to a campaign manifest so
``repro-experiments campaign summary`` can fold conformance runs into its
report.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.deadlock import find_deadlocked
from repro.faults.spec import random_faults
from repro.metrics.stats import SimulationStats
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

#: Detectors graded by default: the paper's mechanism, the previous
#: mechanism, the crude header-blocked timeout, and the edge-chasing
#: probe competitor.
DEFAULT_DETECTORS = ("ndm", "pdm", "timeout", "probe")

#: Both engines always: digest agreement per schedule is the acceptance
#: gate for the whole fault subsystem.
ENGINES = ("scan", "event")

#: Fault windows in each generated schedule.
FAULTS_PER_SCHEDULE = 6


def quick_base_config() -> SimulationConfig:
    """The harness's quick regime: a 4x4 torus that actually wedges.

    One virtual channel per physical channel at half-saturation load
    produces a healthy mix of true deadlocks, fault-induced blocked trees
    and false-positive bait within a few hundred cycles.
    """
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        vcs_per_channel=1,
        warmup_cycles=50,
        measure_cycles=500,
        drain_cycles=800,
        ground_truth_interval=100,
    )
    config.traffic.injection_rate = 0.5
    config.detector.threshold = 16
    return config


def channel_count(config: SimulationConfig) -> int:
    """Number of physical channels a simulator built from ``config`` has."""
    topo = config.build_topology()
    network = sum(
        1 for node in range(topo.num_nodes) for _ in topo.neighbors(node)
    )
    return network + topo.num_nodes * (
        config.injection_ports + config.ejection_ports
    )


def make_cases(
    config: SimulationConfig,
    num_schedules: int,
    base_seed: int = 0,
) -> List[Dict[str, Any]]:
    """Deterministic (seed, schedule) cases for ``config``'s topology."""
    horizon = config.warmup_cycles + config.measure_cycles
    topo = config.build_topology()
    channels = channel_count(config)
    cases: List[Dict[str, Any]] = []
    for k in range(num_schedules):
        seed = base_seed + k
        cases.append(
            {
                "id": f"s{seed}",
                "seed": seed,
                "faults": random_faults(
                    seed=seed,
                    num_channels=channels,
                    num_nodes=topo.num_nodes,
                    num_vcs=config.vcs_per_channel,
                    horizon=horizon,
                    count=FAULTS_PER_SCHEDULE,
                    max_window=max(2, horizon // 2),
                ),
            }
        )
    return cases


# ----------------------------------------------------------------------
# One graded run
# ----------------------------------------------------------------------

def stats_digest(stats: SimulationStats) -> str:
    """Behavioural digest: sha256 over the perf-free stats dict."""
    payload = stats.to_dict(include_perf=False)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graded_run(config: SimulationConfig) -> Tuple[SimulationStats, str]:
    """Run one configuration, grading detections against the oracle.

    Fills the ``oracle_*`` fields of the returned stats and computes the
    behavioural digest.  The per-cycle oracle sweep is identical on both
    engines (it reads end-of-cycle state the engines agree on), so the
    digest doubles as the equivalence witness.
    """
    config.validate()
    if not config.ground_truth_on_detection:
        raise ValueError(
            "conformance grading needs ground_truth_on_detection=True "
            "(per-event true/false classification)"
        )
    sim = Simulator(config)
    stats = sim.stats
    #: message id -> first cycle of its current truly-deadlocked stretch.
    truth_since: Dict[int, int] = {}
    processed = 0

    def on_cycle(cycle: int) -> None:
        nonlocal processed
        # Grade the cycle's detection events against the stretch map from
        # *previous* cycles: detections fire during the routing phase, so
        # the message entered the oracle set at an earlier sweep (or this
        # very cycle, in which case latency is zero via the default).
        events = stats.detection_events
        while processed < len(events):
            event = events[processed]
            processed += 1
            if event.truly_deadlocked:
                latency = event.cycle - truth_since.get(
                    event.message_id, event.cycle
                )
                stats.oracle_true_positive_events += 1
                stats.oracle_latency_sum += latency
                stats.oracle_latency_count += 1
                if latency > stats.oracle_latency_max:
                    stats.oracle_latency_max = latency
            elif event.truly_deadlocked is False:
                stats.oracle_false_positive_events += 1
        # Advance the stretch map to this cycle's end-of-cycle truth.
        current = find_deadlocked(sim.active_messages)
        ids: set = set()
        for m in sorted(current, key=lambda m: m.id):
            ids.add(m.id)
            if m.id not in truth_since:
                truth_since[m.id] = cycle
        for mid in [k for k in truth_since if k not in ids]:
            del truth_since[mid]

    sim.run(on_cycle=on_cycle)
    # False negatives: still truly deadlocked at the end, never marked.
    final = find_deadlocked(sim.active_messages)
    stats.oracle_missed_messages = sum(
        1 for m in final if m.times_detected == 0
    )
    return stats, stats_digest(stats)


# ----------------------------------------------------------------------
# The full harness
# ----------------------------------------------------------------------

def run_conformance(
    base_config: Optional[SimulationConfig] = None,
    cases: Optional[List[Dict[str, Any]]] = None,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
    num_schedules: int = 3,
    base_seed: int = 0,
    cache_dir: Optional[str] = None,
    manifest_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Grade every detector on every fault schedule, on both engines.

    Returns the JSON-ready report; ``report["engines_match"]`` is the
    harness verdict (every case produced identical digests per engine).
    """
    # Imported here: the campaign package pulls in the experiment tables,
    # which this leaf module should not load unless the harness runs.
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CampaignCheckpoint
    from repro.campaign.jobs import config_hash

    base = base_config if base_config is not None else quick_base_config()
    if cases is None:
        cases = make_cases(base, num_schedules, base_seed=base_seed)
    cache = ResultCache(cache_dir) if cache_dir else None
    manifest = (
        CampaignCheckpoint(manifest_path) if manifest_path else None
    )

    report: Dict[str, Any] = {
        "base_config": base.to_dict(),
        "engines": list(ENGINES),
        "schedules": cases,
        "detectors": {},
        "engines_match": True,
    }
    for detector in detectors:
        det_cases: List[Dict[str, Any]] = []
        totals: Dict[str, Any] = {
            "true_positives": 0,
            "false_positives": 0,
            "missed": 0,
            "latency_sum": 0,
            "latency_count": 0,
            "latency_max": 0,
            "detections": 0,
        }
        for case in cases:
            per_engine: Dict[str, Dict[str, Any]] = {}
            for engine in ENGINES:
                config = base.replace(
                    seed=case["seed"],
                    engine=engine,
                    faults=[dict(f) for f in case["faults"]],
                )
                config.detector.mechanism = detector
                key = config_hash(config)
                cached = cache.get(key) if cache is not None else None
                t0 = perf_counter()
                if cached is not None:
                    cell = cached
                    source = "cache"
                else:
                    stats, digest = graded_run(config)
                    cell = {
                        "digest": digest,
                        "conformance": stats.fault_conformance(),
                        "detections": stats.detections,
                        "delivered": stats.delivered,
                        "injected": stats.injected,
                        "cycles_run": stats.cycles_run,
                    }
                    source = "run"
                    if cache is not None:
                        cache.put(key, cell)
                per_engine[engine] = cell
                if manifest is not None:
                    record = {
                        "key": f"faults/{detector}/{case['id']}/{engine}",
                        "cell": cell["conformance"],
                        "wall_time": perf_counter() - t0,
                        "worker": "conformance",
                        "engine": engine,
                    }
                    manifest.record_cell(record, key, source)
            digests = {cell["digest"] for cell in per_engine.values()}
            match = len(digests) == 1
            if not match:
                report["engines_match"] = False
            grade = per_engine[ENGINES[0]]
            conf = grade["conformance"]
            det_cases.append(
                {
                    "schedule": case["id"],
                    "seed": case["seed"],
                    "engines_match": match,
                    "digest": grade["digest"],
                    **conf,
                    "detections": grade["detections"],
                }
            )
            totals["true_positives"] += conf["true_positives"]
            totals["false_positives"] += conf["false_positives"]
            totals["missed"] += conf["missed"]
            totals["detections"] += grade["detections"]
            totals["latency_sum"] += conf["latency_sum"]
            totals["latency_count"] += conf["latency_count"]
            if conf["latency_max"] > totals["latency_max"]:
                totals["latency_max"] = conf["latency_max"]
        totals["latency_mean"] = (
            totals["latency_sum"] / totals["latency_count"]
            if totals["latency_count"]
            else None
        )
        report["detectors"][detector] = {
            "cases": det_cases,
            "totals": totals,
        }
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable per-detector conformance table."""
    lines = [
        f"fault conformance: {len(report['schedules'])} schedules x "
        f"{len(report['detectors'])} detectors x "
        f"{len(report['engines'])} engines",
        f"engine digests match: {report['engines_match']}",
        f"{'detector':<10} {'schedule':<9} {'TP':>4} {'FP':>4} "
        f"{'missed':>6} {'lat.mean':>9} {'lat.max':>8} {'events':>7}",
    ]
    def fmt_mean(mean: Optional[float]) -> str:
        return "-" if mean is None else format(mean, ".1f")

    for detector, entry in report["detectors"].items():
        for case in entry["cases"]:
            lines.append(
                f"{detector:<10} {case['schedule']:<9} "
                f"{case['true_positives']:>4} {case['false_positives']:>4} "
                f"{case['missed']:>6} "
                f"{fmt_mean(case['latency_mean']):>9} "
                f"{case['latency_max']:>8} {case['detections']:>7}"
            )
        totals = entry["totals"]
        lines.append(
            f"{detector:<10} {'TOTAL':<9} {totals['true_positives']:>4} "
            f"{totals['false_positives']:>4} {totals['missed']:>6} "
            f"{fmt_mean(totals['latency_mean']):>9} "
            f"{totals['latency_max']:>8} {totals['detections']:>7}"
        )
    return "\n".join(lines)
