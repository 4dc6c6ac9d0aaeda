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

import pytest

import repro.network.simulator as simulator_module
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator

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
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == _digest()


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
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    env["PYTHONHASHSEED"] = hashseed
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return result.stdout.strip()


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
    [("ndm", False), ("ndm", True), ("hybrid", False)],
)
def test_copying_a_simulator_does_not_perturb_it(mechanism, selective):
    """Stepping a deep copy must leave the original on its own trajectory.

    The I-reset hook used to be a closure over live channels, so a copy's
    hooks promoted the *original's* G/P flags.  Nothing is asserted about
    the copy's own trajectory: that still depends on the iteration order
    of ``Simulator._nodes_with_source`` (a set).
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
