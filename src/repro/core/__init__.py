"""Deadlock detection mechanisms and recovery schemes (the paper's core)."""

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.null import NoDetection
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.precise import PreciseNDM
from repro.core.recovery import (
    ProgressiveReinjection,
    NoRecovery,
    ProgressiveRecovery,
    RecoveryManager,
    RegressiveRecovery,
    make_recovery,
)
from repro.core.registry import detector_names, make_detector
from repro.core.timeout import (
    HeaderBlockedTimeout,
    InjectionStallTimeout,
    SourceAgeTimeout,
)

__all__ = [
    "DeadlockDetector",
    "HeaderBlockedTimeout",
    "InjectionStallTimeout",
    "NewDetectionMechanism",
    "NoDetection",
    "NoRecovery",
    "PreciseNDM",
    "PreviousDetectionMechanism",
    "ProgressiveRecovery",
    "ProgressiveReinjection",
    "RecoveryManager",
    "RegressiveRecovery",
    "SourceAgeTimeout",
    "detector_names",
    "make_detector",
    "make_recovery",
]
