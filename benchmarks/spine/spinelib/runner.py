"""The measurement loop for one workload, and its report.

One call to :func:`run_workload` is one process-worth of measuring: the
set-up samples, the discarded warm-up, timed passes until ``seconds``
have been measured, the output checks, and the report.  With tracing on,
passes alternate untraced / traced, so the run also yields the tracer's
own overhead and the proof that tracing does not perturb the simulation.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from spinelib.layers import LAYER_METRICS, PROBES, RepView, unavailable
from spinelib.timing import (
    chunked_wall,
    format_summary,
    host_fingerprint,
    spread,
    summarize,
    undisturbed,
)
from spinelib.tracing import Tracer
from spinelib.workloads import WORKLOADS_BY_NAME, PassOutcome, Workload

#: Timed passes of each kind a run makes at least, whatever ``seconds``.
MIN_REPS = 3


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: The end-to-end metrics, with the share of the parent's median by
#: which each may worsen.  ``BENCHMARK.json`` mirrors this list.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("sim_cycles_per_s", "cell-cycles/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
)


@dataclass
class Rep:
    traced: bool
    #: Wall seconds between consecutive marks (sums to the pass wall).
    chunks: List[float]
    outcome: PassOutcome

    @property
    def wall(self) -> float:
        return sum(self.chunks)


@dataclass
class Measurement:
    workload: Workload
    tracer: Optional[Tracer]
    setup_samples: List[float] = field(default_factory=list)
    reps: List[Rep] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def kind(self, traced: bool) -> List[Rep]:
        return [rep for rep in self.reps if rep.traced == traced]

    def fail(self, cells: int, reasons: List[str]) -> None:
        self.failed += cells
        self.failures.extend(reasons)


def measure(workload: Workload, seconds: float, traced: bool) -> Measurement:
    """Set-up samples, warm-up, then timed passes for ``seconds``."""
    tracer = Tracer(workload.name, PROBES) if traced else None
    m = Measurement(workload, tracer)
    min_reps = 1 if workload.smoke else MIN_REPS
    setup_reps = 1 if workload.smoke else workload.setup_reps

    def timed_setup(record: bool) -> Any:
        gc.collect()
        start = perf_counter()
        state = workload.setup()
        if record:
            m.setup_samples.append(perf_counter() - start)
        return state

    state: Any = None

    def drop_state() -> None:
        nonlocal state
        if state is not None:
            workload.release(state)
            state = None

    try:
        for _ in range(setup_reps):
            drop_state()
            state = timed_setup(record=True)
        if workload.fresh_state_per_pass:
            drop_state()

        workload.warm_up()

        reference: Optional[PassOutcome] = None
        deadline = perf_counter() + seconds
        index = 0
        while True:
            enough = len(m.kind(False)) >= min_reps and (
                not traced or len(m.kind(True)) >= min_reps
            )
            if enough and (workload.smoke or perf_counter() >= deadline):
                break
            # Odd passes of a traced run carry the instrumentation.
            active = tracer if index % 2 == 1 else None
            use_trace = active is not None
            workload.traced = use_trace
            if active is not None:
                active.begin_rep(index)
                active.install()
            try:
                if workload.fresh_state_per_pass:
                    state = timed_setup(record=not use_trace)
                workload.before_pass(state)
                gc.collect()
                frame = active.begin_pass() if active is not None else None
                marks = [perf_counter()]
                raw = workload.timed(state, lambda: marks.append(perf_counter()))
                marks.append(perf_counter())
                if active is not None:
                    active.exit(frame)
            finally:
                if active is not None:
                    active.uninstall()
            outcome = workload.assess(state, raw)
            del raw
            if workload.fresh_state_per_pass:
                drop_state()
            if reference is None:
                reference = outcome
            else:
                if outcome.digest != reference.digest:
                    outcome.failures.append(
                        "behaviour digest differs from the first rep"
                        + (" (tracing perturbed the run)" if use_trace else "")
                    )
                if outcome.counters != reference.counters:
                    outcome.failures.append("engine counters differ across reps")
            m.attempted += outcome.cells
            if outcome.failures:
                m.fail(outcome.cells, [f"rep {index}: {f}" for f in outcome.failures])
            chunks = [b - a for a, b in zip(marks, marks[1:])]
            m.reps.append(Rep(use_trace, chunks, outcome))
            index += 1

        if traced:
            workload.traced = False
            serial = chunked_wall([rep.chunks for rep in m.kind(False)])
            workload.after_timed_reps(serial)
    except Exception:  # the boundary: report, count as failed, carry on
        traceback.print_exc()
        m.attempted += workload.nominal_cells
        m.fail(workload.nominal_cells, ["exception in the measurement loop"])
    finally:
        drop_state()
    m.attempted += workload.extra_attempted
    if workload.extra_failures:
        m.fail(len(workload.extra_failures), workload.extra_failures)
    return m


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_values(m: Measurement) -> Dict[str, float]:
    reps = m.kind(False)
    wall = chunked_wall([rep.chunks for rep in reps])
    outcome = reps[0].outcome
    return {
        "setup_s": undisturbed(m.setup_samples),
        "wall_s": wall,
        "sim_cycles_per_s": outcome.cycles / wall,
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(m: Measurement) -> Dict[str, Optional[float]]:
    """Per-layer metrics; ``None`` marks one whose probe is gone.

    All of them are read from one traced rep — the least disturbed one
    (smallest pass wall) — so sums and ratios between them hold exactly
    (the phases add up to ``network.run.s``).  Counts must be equal in
    every traced rep, which is checked here.
    """
    tracer = m.tracer
    assert tracer is not None
    traced = m.kind(True)
    views = [
        RepView(
            tracer.tallies[rep_id],
            tracer.setup_tallies[rep_id],
            tracer.values[rep_id],
            rep.wall,
            rep.outcome,
            m.workload.trace_extras,
        )
        for rep_id, rep in zip(sorted(tracer.tallies), traced)
    ]
    best = min(views, key=lambda view: view.wall)
    untraced_wall = chunked_wall([rep.chunks for rep in m.kind(False)])
    traced_wall = chunked_wall([rep.chunks for rep in traced])
    run_level: Dict[str, float] = {
        "experiments.failed_frac": m.failed / m.attempted if m.attempted else 1.0,
        "campaign.pool.wall_s": m.workload.trace_extras.get(
            "campaign.pool.wall_s", 0.0
        ),
        "campaign.pool.efficiency": m.workload.trace_extras.get(
            "campaign.pool.efficiency", 0.0
        ),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unresolved": float(len(tracer.unresolved)),
    }
    out: Dict[str, Optional[float]] = {}
    for metric in LAYER_METRICS:
        if metric.fn is None:
            out[metric.name] = run_level[metric.name]
        elif unavailable(metric, tracer.missing):
            out[metric.name] = None
        else:
            out[metric.name] = metric.fn(best)
            if metric.unit == "count":
                per_rep = {metric.fn(view) for view in views}
                if len(per_rep) > 1:
                    m.fail(1, [f"{metric.name} differs across traced reps: {per_rep}"])
    return out


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _print_timing(label: str, values: List[float], bound: Optional[float]) -> None:
    flag = ""
    if bound is not None and len(values) >= 2 and spread(values) > bound:
        flag = f"  UNSTABLE (iqr/med {spread(values):.3f} > bound {bound})"
    print(f"  {label:<22} {format_summary(values)}{flag}")


def report(
    m: Measurement, seed: int, traced: bool, out_dir: Path
) -> Dict[str, Any]:
    """Print every metric by name with its unit; write the result files;
    return the driver's result object."""
    workload = m.workload
    host = host_fingerprint()
    print(f"== {workload.name}  seed={seed}  trace={int(traced)}"
          f"{'  smoke' if workload.smoke else ''}")
    print(f"   why: {workload.why}")
    print(
        f"   host: nproc={host['nproc']} python={host['python']} "
        f"numpy={host['numpy']} load1={host['load1']} {host['platform']}"
    )
    if host["load_warning"]:
        print(f"   WARNING: 1-min load {host['load1']} exceeds nproc {host['nproc']}")

    bounds = {metric.name: metric.bound for metric in END_TO_END}
    payload: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "smoke": workload.smoke,
        "host": host,
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    complete = bool(m.kind(False)) and (not traced or bool(m.kind(True)))
    if complete and not traced:
        values = end_to_end_values(m)
        print("  end-to-end metrics:")
        for metric in END_TO_END:
            value = values[metric.name]
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            print(f"    {metric.name:<18} {value:>14.6g} {metric.unit}"
                  f"  ({metric.better} is better, bound {metric.bound})")
        _print_timing("setup samples (s)", m.setup_samples, bounds["setup_s"])
        walls = [rep.wall for rep in m.kind(False)]
        _print_timing("pass walls (s)", walls, bounds["wall_s"])
        payload["pass_walls"] = summarize(walls)
        payload["setup_samples"] = m.setup_samples
        payload["rep_chunks"] = [rep.chunks for rep in m.kind(False)]
    elif complete:
        layer = layer_values(m)
        print("  per-layer metrics (least-disturbed traced rep; null = probe gone):")
        for metric in LAYER_METRICS:
            value = layer[metric.name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"    {metric.name:<34} {shown:>14} {metric.unit}")
            # The driver wants a number for every declared metric; a probe
            # that no longer resolves reads 0 here, null in the files, and
            # is counted by trace.unresolved.
            metrics[metric.name] = {
                "value": 0.0 if value is None else value,
                "unit": metric.unit,
            }
        _print_timing("untraced walls (s)", [r.wall for r in m.kind(False)], None)
        _print_timing("traced walls (s)", [r.wall for r in m.kind(True)], None)
        payload["per_layer"] = layer
        assert m.tracer is not None
        payload["unresolved"] = m.tracer.unresolved
        trace_path = out_dir / f"trace-{workload.name}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "host": host,
                    "spans": m.tracer.span_rows(),
                    "spans_dropped": m.tracer.spans_dropped,
                    "tallies": m.tracer.tallies,
                    "setup_tallies": m.tracer.setup_tallies,
                    "values": m.tracer.values,
                    "unresolved": m.tracer.unresolved,
                }
            )
        )
        print(f"  trace written to {trace_path}")

    if m.reps:
        outcome = m.reps[0].outcome
        print(f"  behaviour_digest       {outcome.digest}")
        print(f"  false_detect_pct       {outcome.false_detect_pct():.6g} % (simulated)")
        payload["behaviour_digest"] = outcome.digest
        payload["false_detect_pct"] = outcome.false_detect_pct()
        payload["engine_counters"] = outcome.counters
    failed_frac = m.failed / m.attempted if m.attempted else 1.0
    print(f"  failed_frac            {failed_frac:.6g} "
          f"({m.failed} of {m.attempted} cell resolutions)")
    for failure in m.failures:
        print(f"  FAILED: {failure}")

    result = {
        "correct": complete and m.failed == 0,
        "attempted": max(m.attempted, 1),
        "failed": m.failed,
        "metrics": metrics,
    }
    payload["result"] = result
    payload["failures"] = m.failures
    (out_dir / f"result-{workload.name}-trace{int(traced)}.json").write_text(
        json.dumps(payload, indent=1)
    )
    return result


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, out_dir: Path
) -> Dict[str, Any]:
    """Measure one workload in this process and print its report.

    Everything the run writes lands under ``out_dir``; the scratch
    directory holding caches and manifests is removed before returning.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"scratch-{name}-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = WORKLOADS_BY_NAME[name](seed, smoke, scratch)
        measurement = measure(workload, seconds, traced)
        return report(measurement, seed, traced, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
