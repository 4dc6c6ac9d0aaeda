"""The public API surface: imports, __all__ hygiene, version."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quick_tour_runs(self):
        """The __init__ docstring's quick tour, executed."""
        config = repro.SimulationConfig(radix=4, dimensions=2)
        config.traffic.injection_rate = 0.2
        config.detector.mechanism = "ndm"
        config.detector.threshold = 32
        config.warmup_cycles = 50
        config.measure_cycles = 200
        stats = repro.Simulator(config).run()
        assert "throughput" in stats.summary()

    def test_table_entry_points_take_no_engine(self):
        """Tables run on the default engine; the fold is chosen from the
        cells, so there is nothing for a caller to select.  Both entry
        points take the campaign keywords under one spelling."""
        from repro.campaign import run_campaign
        from repro.experiments import run_table

        for entry in (run_table, run_campaign):
            params = inspect.signature(entry).parameters
            assert "engine" not in params
            assert {"jobs", "cache", "checkpoint", "resume"} <= set(params)
            assert "num_workers" not in params


    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
    )
    def test_src_imports_only_the_standard_library(self):
        """``dependencies = []`` holds for every import, guarded or not."""
        foreign = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign.update(
                    (path.name, name)
                    for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and name.split(".")[0] != "repro"
                )
        assert not foreign


SUBPACKAGES = [
    "repro.core",
    "repro.network",
    "repro.traffic",
    "repro.analysis",
    "repro.metrics",
    "repro.experiments",
    "repro.figures",
]


class TestSubpackages:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_importable(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a docstring"

    @pytest.mark.parametrize(
        "name",
        ["repro.core", "repro.network", "repro.traffic", "repro.analysis",
         "repro.metrics", "repro.experiments"],
    )
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"


class TestEveryModuleDocumented:
    @pytest.mark.parametrize(
        "name",
        [
            "repro.core.ndm", "repro.core.pdm", "repro.core.precise",
            "repro.core.timeout", "repro.core.recovery",
            "repro.core.probe", "repro.core.detector", "repro.core.registry",
            "repro.network.topology", "repro.network.routing",
            "repro.network.channel", "repro.network.message",
            "repro.network.router", "repro.network.simulator",
            "repro.network.config", "repro.network.tracing",
            "repro.traffic.patterns", "repro.traffic.lengths",
            "repro.traffic.workload",
            "repro.analysis.deadlock", "repro.analysis.waitgraph",
            "repro.analysis.saturation", "repro.analysis.channels",
            "repro.metrics.stats", "repro.metrics.timeseries",
            "repro.experiments.spec", "repro.experiments.runner",
            "repro.experiments.report",
            "repro.experiments.paper_data", "repro.experiments.cli",
            "repro.experiments.latency",
            "repro.experiments.detection_latency",
            "repro.figures.scenarios",
        ],
    )
    def test_module_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name

    def test_public_classes_documented(self):
        from repro.core.ndm import NewDetectionMechanism
        from repro.network.simulator import Simulator
        from repro.network.channel import PhysicalChannel

        for cls in (NewDetectionMechanism, Simulator, PhysicalChannel):
            assert cls.__doc__
            for attr_name in dir(cls):
                attr = getattr(cls, attr_name)
                if attr_name.startswith("_") or not callable(attr):
                    continue
                if getattr(attr, "__module__", "").startswith("repro"):
                    assert attr.__doc__, f"{cls.__name__}.{attr_name}"
