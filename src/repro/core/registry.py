"""Detector registry: build a detection mechanism from a config section."""

from __future__ import annotations

from typing import Tuple, Type

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.null import NoDetection
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.precise import PreciseNDM
from repro.core.probe import ProbeDetection
from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)
from repro.network.config import DetectorConfig

#: Mechanism name -> implementing class, in registry (report) order.
_DETECTOR_CLASSES = {
    cls.name: cls
    for cls in (
        NewDetectionMechanism,
        PreciseNDM,
        PreviousDetectionMechanism,
        ProbeDetection,
        HeaderBlockedTimeout,
        SourceAgeTimeout,
        InjectionStallTimeout,
        NoDetection,
    )
}


def detector_class(name: str) -> Type[DeadlockDetector]:
    """The class declaring mechanism ``name`` (``ValueError`` if unknown)."""
    try:
        return _DETECTOR_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown detection mechanism {name!r}; choose from {detector_names()}"
        ) from None


def make_detector(config: DetectorConfig) -> DeadlockDetector:
    """Instantiate the mechanism named by ``config.mechanism``."""
    return detector_class(config.mechanism).from_config(config)


def threshold_monotone(config: DetectorConfig) -> bool:
    """True when this cell's threshold acts only through ``score >
    threshold`` — its class overrides ``DeadlockDetector.score`` (pdm, ndm
    under either promotion, the three timeouts).  Until such a detector
    marks, nothing the trajectory reads depends on the threshold, so a run
    that marks nothing at one threshold is the run at every higher one;
    the campaign executor chains those cells (see
    ``repro.campaign.executor``).
    """
    cls = _DETECTOR_CLASSES.get(config.mechanism)
    return cls is not None and cls.score is not DeadlockDetector.score


def detector_names() -> Tuple[str, ...]:
    """Mechanism names accepted by :func:`make_detector`."""
    return tuple(_DETECTOR_CLASSES)
