"""Tests for the detector registry."""

import pytest

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.null import NoDetection
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.registry import (
    detector_class,
    detector_names,
    make_detector,
    threshold_monotone,
)
from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.network.batch import BatchObserver, BatchSimulator
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ndm", NewDetectionMechanism),
            ("pdm", PreviousDetectionMechanism),
            ("timeout", HeaderBlockedTimeout),
            ("source-age", SourceAgeTimeout),
            ("injection-stall", InjectionStallTimeout),
            ("none", NoDetection),
        ],
    )
    def test_builds_right_class(self, name, cls):
        detector = make_detector(DetectorConfig(mechanism=name, threshold=16))
        assert isinstance(detector, cls)

    def test_threshold_forwarded(self):
        detector = make_detector(DetectorConfig(mechanism="pdm", threshold=77))
        assert detector.threshold == 77

    def test_ndm_options_forwarded(self):
        detector = make_detector(
            DetectorConfig(
                mechanism="ndm", threshold=64, t1=2, selective_promotion=True
            )
        )
        assert detector.t1 == 2
        assert detector.selective_promotion

    def test_unknown_mechanism_raises(self):
        with pytest.raises(ValueError, match="unknown detection mechanism"):
            make_detector(DetectorConfig(mechanism="oracle"))

    def test_all_names_constructible(self):
        """Every name builds from its default config section, reports its
        own name, and passes ``validate()`` (which asks the same class)."""
        for name in detector_names():
            assert make_detector(DetectorConfig(mechanism=name)).name == name
            SimulationConfig(detector=DetectorConfig(mechanism=name)).validate()

    @pytest.mark.parametrize(
        "name", [name for name in detector_names() if name != "none"]
    )
    def test_every_name_folds_a_ladder(self, name):
        """Every mechanism folds, on a threshold ladder or as units, so a
        one-family ladder equals three solo runs for *every* registered
        name (a 16-node torus that blocks hard: single lane, beyond
        saturation; every family detects at every rung here; ``none``
        detects nothing, so its ladder would pass vacuously)."""
        config = SimulationConfig(
            radix=4,
            dimensions=2,
            vcs_per_channel=1,
            injection_limit_fraction=None,
            recovery="none",
            warmup_cycles=0,
            measure_cycles=400,
            seed=3,
        )
        config.traffic.injection_rate = 1.0
        cells = [DetectorConfig(mechanism=name, threshold=t) for t in (4, 16, 64)]
        folded = BatchSimulator(config, cells).run()
        for cell, stats in zip(cells, folded):
            solo = Simulator(config.replace(detector=cell)).run()
            assert stats.to_dict(include_perf=False) == solo.to_dict(
                include_perf=False
            ), cell.threshold
        # Not vacuous: the ladder's rungs see different detection counts.
        assert folded[0].detections > folded[2].detections > 0

    def test_threshold_monotone_names_the_score_mechanisms(self):
        """The mechanisms whose threshold acts only through ``score`` —
        the ones a campaign may chain — under either NDM promotion."""
        monotone = {
            name for name in detector_names()
            if threshold_monotone(DetectorConfig(mechanism=name))
        }
        assert monotone == {"ndm", "pdm", "timeout", "source-age", "injection-stall"}
        assert threshold_monotone(
            DetectorConfig(mechanism="ndm", selective_promotion=True)
        )
        assert not threshold_monotone(DetectorConfig(mechanism="no-such"))

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            make_detector(DetectorConfig(mechanism="pdm", threshold=0))

    def test_base_hooks_are_noops(self):
        detector = make_detector(DetectorConfig(mechanism="none"))
        assert detector.on_blocked_attempt(None, None, 0, True) is False
        assert detector.periodic_check(None, 0) == []
        detector.on_message_routed(None, 0)
        detector.on_vc_released(None, 0)
        detector.on_message_removed(None, 0)


def _repro_detector_classes():
    """Every loaded ``DeadlockDetector`` subclass defined in ``repro``."""
    found, stack = [], [DeadlockDetector]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found.append(cls)
                stack.append(cls)
    return found


def _overrides(cls, name):
    return getattr(cls, name) is not getattr(DeadlockDetector, name)


class TestEventEngineProtocol:
    """What the simulator assumes of every detector class: it reads the
    class flags, not the hooks, to decide what to call and when a
    blocked header may sleep."""

    def test_walk_covers_the_registry_and_the_fold(self):
        classes = _repro_detector_classes()
        assert BatchObserver in classes
        assert {detector_class(name) for name in detector_names()} <= set(classes)

    @pytest.mark.parametrize(
        "cls", _repro_detector_classes(), ids=lambda cls: cls.__name__
    )
    def test_detector_class_honours_the_protocol(self, cls):
        own = vars(cls)
        if "on_blocked_attempt" in own:
            # Else the event engine parks a blocked header with no deadline
            # and sleeps through its detection.
            assert (
                _overrides(cls, "deadline")
                or _overrides(cls, "blocked_deadline")
                or cls.can_sleep_blocked is False
            ), f"{cls.__name__} detects on blocked attempts but declares no deadline"
        if "periodic_check" in own:
            assert cls.needs_periodic_check is True, "periodic_check is never called"
        if "probe_phase" in own:
            assert cls.has_probe_phase is True, "probe_phase is never called"
        if cls.has_probe_phase is True:
            assert _overrides(cls, "probe_phase"), "the probe phase runs the no-op"
        hooks = ("on_blocked_attempt", "periodic_check", "probe_phase")
        if any(_overrides(cls, hook) for hook in hooks):
            assert cls.name != DeadlockDetector.name, f"{cls.__name__} has no name"
