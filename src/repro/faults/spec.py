"""Fault specifications: the schedule language of the fault subsystem.

A fault schedule is a plain list of :class:`FaultSpec` entries (stored in
``SimulationConfig.faults`` as JSON-safe dicts, so schedules participate in
config hashing, campaign caching and provenance for free).  Every fault is
a half-open cycle window ``[start, end)`` on one target:

* ``link-down`` — no flit may cross physical channel ``channel`` and no
  lane of it may be allocated while the window is active; flits already
  buffered past the link still drain through downstream crossbars.
* ``vc-stuck`` — lane ``lane`` of channel ``channel`` neither accepts nor
  releases flits and cannot be allocated; the other lanes keep working.
* ``router-stall`` — node ``node``'s crossbar stops switching: compiled
  into ``link-down`` windows on every channel the router drives (network
  outputs, ejection ports) plus its injection ports.
* ``counter-freeze`` — the inactivity counter of channel ``channel`` holds
  its reading for the window (the hardware gates the increment); a flit
  reset still clears it to zero.
* ``counter-lag`` — at ``start`` the counter of channel ``channel`` is set
  back by ``lag`` cycles (a delayed counter); the next flit reset clears
  the lag.

Windows on the same target compose by refcount: a channel is down while
*any* covering ``link-down`` window is active.  Both counter faults can
only move detector threshold crossings *later*, never earlier, which is
what keeps the event engine's cached wake deadlines sound (they are lower
bounds; see ``PhysicalChannel.inactivity_deadline``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Largest counter lag ``random_faults`` draws, in cycles.
MAX_LAG = 32

#: Recognized fault kinds, in documentation order.
FAULT_KINDS = (
    "link-down",
    "vc-stuck",
    "router-stall",
    "counter-freeze",
    "counter-lag",
)

#: Kinds addressing one physical channel via ``channel``.
_CHANNEL_KINDS = ("link-down", "vc-stuck", "counter-freeze", "counter-lag")


@dataclass(frozen=True)
class FaultSpec:
    """One fault window (see module docstring for per-kind semantics).

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        start: first cycle the fault is active.
        end: first cycle after the window (half-open, ``end > start``).
        channel: target physical-channel index (channel-addressed kinds).
        lane: target virtual-channel index (``vc-stuck`` only).
        node: target node id (``router-stall`` only).
        lag: cycles the counter is set back (``counter-lag`` only).
    """

    kind: str
    start: int
    end: int
    channel: Optional[int] = None
    lane: Optional[int] = None
    node: Optional[int] = None
    lag: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed spec (topology-independent)."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose one of {FAULT_KINDS}"
            )
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"fault window must satisfy 0 <= start < end, got "
                f"[{self.start}, {self.end})"
            )
        if self.kind in _CHANNEL_KINDS:
            if self.channel is None or self.channel < 0:
                raise ValueError(f"{self.kind} fault needs a channel index >= 0")
        if self.kind == "vc-stuck" and (self.lane is None or self.lane < 0):
            raise ValueError("vc-stuck fault needs a lane index >= 0")
        if self.kind == "router-stall" and (self.node is None or self.node < 0):
            raise ValueError("router-stall fault needs a node id >= 0")
        if self.kind == "counter-lag" and self.lag < 1:
            raise ValueError("counter-lag fault needs lag >= 1")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (the shape stored in config ``faults``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; validates the rebuilt spec."""
        spec = cls(**payload)
        spec.validate()
        return spec


def validate_fault_dicts(payloads: Sequence[Dict[str, Any]]) -> None:
    """Validate a config's raw ``faults`` list (shape only, no topology)."""
    for payload in payloads:
        if not isinstance(payload, dict):
            raise ValueError(f"fault entries must be dicts, got {payload!r}")
        FaultSpec.from_dict(payload)


def random_faults(
    seed: int,
    num_channels: int,
    num_nodes: int,
    num_vcs: int,
    horizon: int,
    count: int = 4,
    kinds: Sequence[str] = FAULT_KINDS,
    max_window: int = 200,
) -> List[Dict[str, Any]]:
    """A deterministic pseudo-random fault schedule (dict form).

    Used by the conformance harness and the property tests to explore the
    schedule space reproducibly: the same arguments always produce the
    same schedule, via a private ``random.Random(seed)`` stream that never
    touches the simulation RNG.
    """
    if num_channels < 1 or num_nodes < 1 or num_vcs < 1 or horizon < 2:
        raise ValueError("random_faults needs a non-trivial network and horizon")
    rng = random.Random(seed)
    faults: List[Dict[str, Any]] = []
    for _ in range(count):
        kind = rng.choice(list(kinds))
        start = rng.randrange(0, horizon - 1)
        length = rng.randrange(1, max_window + 1)
        end = min(start + length, horizon)
        spec = FaultSpec(
            kind=kind,
            start=start,
            end=end,
            channel=(
                rng.randrange(num_channels) if kind in _CHANNEL_KINDS else None
            ),
            lane=rng.randrange(num_vcs) if kind == "vc-stuck" else None,
            node=rng.randrange(num_nodes) if kind == "router-stall" else None,
            lag=rng.randrange(1, MAX_LAG + 1) if kind == "counter-lag" else 0,
        )
        spec.validate()
        faults.append(spec.to_dict())
    return faults
