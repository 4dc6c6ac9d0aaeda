"""Self-tests of the measurement spine.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/spine/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parents[1]
ROOT = SPINE.parents[1]
sys.path.insert(0, str(SPINE))
sys.path.insert(0, str(ROOT / "src"))

import run as spine_run  # noqa: E402
from spinelib.layers import LAYER_METRICS, PROBES, unavailable  # noqa: E402
from spinelib.runner import END_TO_END  # noqa: E402
from spinelib.timing import chunked_wall, spread, summarize  # noqa: E402
from spinelib.tracing import Probe, Tracer, self_times  # noqa: E402
from spinelib.workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
WORKLOAD_NAMES = [cls.name for cls in WORKLOADS]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["b.child", 6.0, 8.0, 2],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_online_self_time_matches_the_span_list():
    tracer = Tracer("synthetic", [])
    tracer.begin_rep(0)
    root = tracer.begin_pass()
    for _ in range(3):
        outer = tracer.enter("outer")
        inner = tracer.enter("inner")
        sum(range(2000))
        tracer.exit(inner)
        tracer.exit(outer)
    tracer.exit(root)
    offline = {}
    for row, own in zip(tracer.spans, self_times(tracer.spans)):
        offline[row[0]] = offline.get(row[0], 0.0) + own
    for stem, (calls, total, own) in tracer.tallies[0].items():
        assert own == pytest.approx(offline[stem], abs=1e-9)
        assert own <= total
    assert tracer.tallies[0]["outer"][0] == 3
    parents = {row[0]: row[3] for row in tracer.spans}
    assert parents["pass"] == -1 and parents["outer"] == 0


def test_chunked_wall_ignores_a_burst_that_inflates_one_rep():
    clean = [0.1, 0.2, 0.3]
    reps = [clean, clean, [0.1, 0.9, 0.3], clean, [0.5, 0.2, 0.3]]
    assert chunked_wall(reps) == pytest.approx(0.6)
    # Reps that disagree on their chunk count fall back to rep totals.
    assert chunked_wall([[1.0], [0.5, 0.5], [3.0]]) == pytest.approx(1.0)
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert summarize([2.0])["median"] == 2.0


# ----------------------------------------------------------------------
# Refactor resilience
# ----------------------------------------------------------------------
def test_a_vanished_name_reads_null_and_never_raises(capsys):
    probes = [
        Probe("campaign.hash", ["repro.campaign.jobs:no_such_function"]),
        Probe("campaign.plan", ["repro.no_such_module:anything"]),
        Probe("metrics.to_dict", ["repro.metrics.stats:SimulationStats.to_dict"]),
    ]
    tracer = Tracer("synthetic", probes)
    tracer.begin_rep(0)
    tracer.install()
    try:
        from repro.metrics.stats import SimulationStats

        SimulationStats().to_dict()
    finally:
        tracer.uninstall()
    assert tracer.missing == {"campaign.hash", "campaign.plan"}
    assert len(tracer.unresolved) == 2
    assert "did not resolve" in capsys.readouterr().out
    assert tracer.setup_tallies[0]["metrics.to_dict"][0] == 1
    by_name = {metric.name: metric for metric in LAYER_METRICS}
    assert unavailable(by_name["campaign.hash.s"], tracer.missing)
    assert not unavailable(by_name["metrics.to_dict.s"], tracer.missing)
    # Hook metrics hang off the probe that wraps the hooks.
    assert unavailable(by_name["core.hooks.s"], {"core.make_detector"})
    assert unavailable(by_name["core.periodic_check.calls"], {"core.make_detector"})


def test_install_and_uninstall_restore_every_attribute():
    from repro.metrics.stats import SimulationStats

    before = (
        vars(SimulationStats)["to_dict"],
        vars(SimulationStats)["from_dict"],
    )
    tracer = Tracer("synthetic", PROBES)
    tracer.begin_rep(0)
    tracer.install()
    assert vars(SimulationStats)["to_dict"] is not before[0]
    round_trip = SimulationStats.from_dict(SimulationStats().to_dict())
    tracer.uninstall()
    assert round_trip == SimulationStats()
    assert (
        vars(SimulationStats)["to_dict"],
        vars(SimulationStats)["from_dict"],
    ) == before
    assert tracer.unresolved == []


# ----------------------------------------------------------------------
# BENCHMARK.json: the contract's limits, and equality with the code
# ----------------------------------------------------------------------
def test_benchmark_json_stays_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = (
        [w["name"] for w in DECLARED["workloads"]]
        + [m["name"] for m in DECLARED["end_to_end"]]
        + [m["name"] for m in DECLARED["per_layer"]]
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert max(m["bound"] for m in DECLARED["end_to_end"]) == setup[0]["bound"]
    assert isinstance(DECLARED["run_seconds"], int)
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert (4 + 22 * len(DECLARED["workloads"])) * DECLARED["run_seconds"] < 3420
    assert DECLARED["paths"] == ["benchmarks/spine"]
    assert DECLARED["command"] == ["python3", "benchmarks/spine/run.py"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_mirrors_the_code():
    assert DECLARED["workloads"] == [
        {"name": cls.name, "why": cls.why} for cls in WORKLOADS
    ]
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    assert DECLARED["run_seconds"] == spine_run.DEFAULT_SECONDS


def test_readme_explains_every_metric_and_workload():
    text = (SPINE / "README.md").read_text()
    for name in (
        WORKLOAD_NAMES
        + [m.name for m in END_TO_END]
        + [m.name for m in LAYER_METRICS]
    ):
        assert f"`{name}`" in text, f"README.md does not mention {name}"


# ----------------------------------------------------------------------
# Every workload, smoke size: output checks pass, schema as declared
# ----------------------------------------------------------------------
def run_smoke(workload, trace, out_dir, cwd=ROOT, script=SPINE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke",
            "--out", str(out_dir),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(
    workload, trace, tmp_path
):
    done = run_smoke(workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        # Every metric is printed by name in the human-readable part too.
        assert metric["name"] in done.stdout
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "behaviour_digest" in done.stdout
    # Nothing is left behind but the result (and trace) files.
    leftovers = sorted(p.name for p in tmp_path.iterdir())
    expected = [f"result-{workload}-trace{trace}.json"]
    if trace:
        expected.append(f"trace-{workload}.json")
    assert leftovers == sorted(expected)


def test_traced_smoke_runs_show_the_expected_grouping(tmp_path):
    groups = {}
    for workload in ("table2-quick", "detgrid-norecovery"):
        done = run_smoke(workload, 1, tmp_path)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.rstrip("\n").split("\n")[-1])["metrics"]
        groups[workload] = metrics["campaign.group.groups"]["value"]
        assert "trace.overhead_frac" in metrics
    from repro.network.batch import HAVE_NUMPY

    assert groups == {
        "table2-quick": 0,
        "detgrid-norecovery": 2 if HAVE_NUMPY else 0,
    }
    trace = json.loads((tmp_path / "trace-table2-quick.json").read_text())
    spans = trace["spans"]
    assert set(spans[0]) == {"name", "start", "end", "parent", "workload", "rep"}
    passes = [i for i, span in enumerate(spans) if span["name"] == "pass"]
    assert len(passes) == 1 and spans[passes[0]]["parent"] is None
    # Everything the pass called hangs under it; set-up spans precede it.
    children = {span["name"] for span in spans if span["parent"] == passes[0]}
    assert {"campaign.plan", "campaign.execute", "experiments.render"} <= children


def test_cube512_phases_sum_to_the_run(tmp_path):
    done = run_smoke("cube512-sat", 1, tmp_path)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.rstrip("\n").split("\n")[-1])["metrics"]
    phases = sum(
        entry["value"]
        for name, entry in metrics.items()
        if name.startswith("network.phase.")
    )
    assert phases == pytest.approx(metrics["network.run.s"]["value"], rel=1e-9)
    assert metrics["network.phase.unattributed.s"]["value"] >= 0


def test_outside_the_repo_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        SPINE,
        tmp_path / "benchmarks" / "spine",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_smoke(
        "cube512-sat", 0, tmp_path / "out", cwd=tmp_path,
        script=tmp_path / "benchmarks" / "spine" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
