"""Cross-environment determinism of a (config, seed) pair.

A run must be bit-reproducible on any host.  Before the fix, traffic
generation drew per-cycle source sets from ``numpy`` when it was
importable and from the seeded ``random.Random`` stream otherwise, so
the same (config, seed) produced *different* runs depending on whether
numpy happened to be installed — and the campaign cache, keyed only by
the config hash, would happily serve one environment's results to the
other.  Generation is now backend-free: the pure-Python Bernoulli draws
are the only path.

``test_generation_identical_without_numpy`` fails against the old code
(in this environment numpy *is* installed, so the old fast path kicks in
and diverges from the numpy-blocked subprocess) and passes with the fix.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import repro.network.simulator as simulator_module
from repro.network.batch import BatchSimulator
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator
from repro.network.tracing import Tracer
from tests.integration.test_golden import digest_of
from tests.network.test_batch_engine import MIXED_CELLS, _mixed_config
from tests.network.test_engine_equivalence import CASES, _config

_CONFIG_KWARGS = dict(
    radix=4,
    dimensions=2,
    warmup_cycles=50,
    measure_cycles=300,
    seed=99,
)
_RATE = 0.3


def _digest() -> str:
    config = SimulationConfig(**_CONFIG_KWARGS)
    config.traffic.injection_rate = _RATE
    stats = Simulator(config).run()
    payload = stats.to_dict(include_events=False, include_perf=False)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_same_seed_same_run():
    assert _digest() == _digest()


def test_module_level_random_does_not_reach_a_run():
    """Every draw comes from the run's own seeded ``random.Random``, so
    re-seeding the module-level ``random`` between runs changes nothing."""
    state = random.getstate()
    try:
        digests = []
        for seed in (1, 2):
            random.seed(seed)
            digests.append(_digest())
    finally:
        random.setstate(state)
    assert digests[0] == digests[1]


def test_simulator_does_not_import_numpy():
    """Generation must not depend on an optional backend."""
    source = inspect.getsource(simulator_module)
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy"


def test_generation_identical_without_numpy():
    """The digest must match in a subprocess where numpy cannot import."""
    script = f"""
import sys

class _Block:
    def find_module(self, name, path=None):
        if name == "numpy" or name.startswith("numpy."):
            return self
    def load_module(self, name):
        raise ImportError("numpy blocked for determinism test")

sys.meta_path.insert(0, _Block())

import hashlib, json
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

config = SimulationConfig(**{_CONFIG_KWARGS!r})
config.traffic.injection_rate = {_RATE!r}
stats = Simulator(config).run()
payload = stats.to_dict(include_events=False, include_perf=False)
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""
    assert _python(script) == _digest()


def _python(script: str, hashseed: Optional[str] = None, *argv: str) -> str:
    """Run ``script`` with ``argv`` in a fresh interpreter that imports
    this tree's ``repro``; return its stripped stdout."""
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return result.stdout.strip()


def _digest_under_hashseed(hashseed: str) -> str:
    """Run a saturated simulation in a subprocess with a fixed hash seed.

    The load is pushed past saturation so blocked headers actually park in
    the per-channel waiter collections — the code path whose iteration
    order used to depend on object hashes.
    """
    script = f"""
import hashlib, json
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

config = SimulationConfig(**{_CONFIG_KWARGS!r})
config.traffic.injection_rate = 0.6
stats = Simulator(config).run()
payload = stats.to_dict(include_events=False, include_perf=False)
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""
    return _python(script, hashseed)


def test_run_identical_across_hash_seeds():
    """Waiter wakeup order must not depend on PYTHONHASHSEED.

    Before waiter sets became insertion-ordered dicts, the event engine
    woke parked headers in ``set`` iteration order — i.e. object-hash
    order — so runs could diverge between interpreters with different
    hash randomization.  Two subprocesses with different explicit hash
    seeds must produce byte-identical stats.
    """
    assert _digest_under_hashseed("0") == _digest_under_hashseed("4242")


@pytest.mark.parametrize(
    "mechanism,selective",
    [("ndm", False), ("ndm", True)],
)
def test_copying_a_simulator_does_not_perturb_it(mechanism, selective):
    """Stepping a deep copy must leave the original on its own trajectory.

    The I-reset hook used to be a closure over live channels, so a copy's
    hooks promoted the *original's* G/P flags.  The copy's own trajectory
    is held by :func:`test_deep_copy_ends_on_the_fresh_run_digest`.
    """

    def build() -> Simulator:
        config = SimulationConfig(
            radix=4,
            dimensions=2,
            vcs_per_channel=1,
            injection_limit_fraction=None,
            warmup_cycles=0,
            measure_cycles=600,
            seed=1,
        )
        config.traffic.injection_rate = 1.0
        config.detector = DetectorConfig(
            mechanism=mechanism, threshold=16, selective_promotion=selective
        )
        return Simulator(config)

    def behaviour(sim: Simulator) -> dict:
        return sim.stats.to_dict(include_perf=False)

    reference = build()
    for _ in range(600):
        reference.step()
    assert reference.stats.detections > 0  # the hook has something to do

    original = build()
    for _ in range(300):
        original.step()
    clone = copy.deepcopy(original)
    for _ in range(300):
        clone.step()
    for _ in range(300):
        original.step()
    assert behaviour(original) == behaviour(reference)


def _build(case: str):
    """A traced engine-equivalence run, or the mixed fold group: one
    shared trajectory serving every shareable detector family."""
    if case == "fold-group":
        return BatchSimulator(_mixed_config(), MIXED_CELLS)
    sim = Simulator(_config(**CASES[case]))
    sim.tracer = Tracer(capacity=0)
    return sim


def _finish(run):
    """Run to the end; return everything the run's digest covers."""
    if isinstance(run, BatchSimulator):
        return [stats.to_dict(include_perf=False) for stats in run.run()]
    return run.run().to_dict(include_perf=False), digest_of(run)


@pytest.mark.parametrize("case", sorted(CASES) + ["fold-group"])
def test_deep_copy_ends_on_the_fresh_run_digest(case):
    """A run is a function of its config and seed, not of its objects'
    memory layout: a deep copy taken at a mid-run cycle, the original
    it was copied from, and a fresh run all end on one digest.

    One interpreter iterates a given set the same way every time, so
    every ordinary run agrees with itself; a copy rebuilds each set
    from scratch, with other addresses and another slot layout.  A
    phase whose visit order follows a set fails here.
    """
    reference = _finish(_build(case))
    original = _build(case)
    sim = getattr(original, "sim", original)
    # A fixed cycle per case; seeding ``Random`` with a str does not
    # depend on PYTHONHASHSEED.
    cycle = random.Random(case).randrange(
        1, sim.config.warmup_cycles + sim.config.measure_cycles
    )
    for _ in range(cycle):
        sim.step()
    clone = copy.deepcopy(original)
    assert _finish(clone) == reference, f"the copy taken at cycle {cycle} diverged"
    assert _finish(original) == reference


_CAMPAIGN_SCRIPT = """
import json, sys
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.experiments.report import table_to_json
from repro.experiments.runner import run_table
from repro.experiments.spec import TableSpec, base_config

manifest = CampaignCheckpoint(sys.argv[1], fresh=True)
tables = []
for table_id, recovery in ((1, "none"), (2, "progressive")):
    base = base_config(full=False)
    base.radix = 4
    base.warmup_cycles, base.measure_cycles = 50, 200
    base.recovery = recovery
    spec = TableSpec(
        table_id=table_id,
        title="mixed",
        mechanism="pdm" if table_id == 1 else "ndm",
        pattern="uniform",
        sizes=("s", "l"),
        load_fractions=(0.5, 0.7, 0.9),
        paper_rates=(0.3, 0.4, 0.5),
        thresholds=(8, 32),
        saturated_loads=(2,),
    )
    tables.append(json.loads(table_to_json(run_table(spec, base, 1.0, jobs=1, checkpoint=manifest))))
cells = [r for r in manifest.records() if r["kind"] == "cell"]
print(json.dumps({
    "tables": tables,
    "manifest_keys": [r["key"] for r in cells],
    "engines": sorted({r["engine"] for r in cells}),
}, sort_keys=True))
"""


def test_campaign_identical_across_hash_seeds(tmp_path):
    """A campaign's tables and the order it records its cells do not
    depend on PYTHONHASHSEED.

    The first table runs without recovery, so its cells fold into
    shared-trajectory groups (one per load and size); the second runs
    every cell solo.  Planning keys its groups by a string (a config
    hash), so a walk of those groups as a set would run them, and write
    them to the manifest, in an order that moves with the hash seed;
    within one interpreter every run agrees with itself, so only an A/B
    sees it.
    """
    runs = [
        json.loads(_python(_CAMPAIGN_SCRIPT, seed, str(tmp_path / f"{seed}.jsonl")))
        for seed in ("0", "1", "4242")
    ]
    assert runs[0]["engines"] == ["batch", "event"]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
