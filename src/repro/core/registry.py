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


def batch_shareable(config: DetectorConfig) -> bool:
    """True when this detector cell may fold onto a shared batch run:
    its class's ``folds`` (see ``DeadlockDetector.batch_shareable`` for
    the observer contract behind it).  The campaign executor additionally
    requires ``recovery == "none"`` and a fault-free schedule before
    grouping (see ``repro.network.batch.plan_batches``).
    """
    cls = _DETECTOR_CLASSES.get(config.mechanism)
    return cls is not None and cls.folds(config)


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


def batch_shareable_names() -> Tuple[str, ...]:
    """Mechanism names whose cells the batch backend may fold."""
    return tuple(
        name for name, cls in _DETECTOR_CLASSES.items() if cls.batch_shareable
    )


def detector_names() -> Tuple[str, ...]:
    """Mechanism names accepted by :func:`make_detector`."""
    return tuple(_DETECTOR_CLASSES)
