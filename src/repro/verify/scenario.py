"""Verification scenarios: small closed-world configurations.

A :class:`VerifyScenario` describes everything the bounded model checker
needs to enumerate a configuration's reachable state space:

* a tiny network (2-4 node ring or line, one injection/ejection port per
  node) — small enough that the full reachable quotient fits in memory;
* a *scripted* workload: a fixed list of :class:`MessageSpec` entries with
  per-message injection windows, instead of random traffic.  Random
  generation is disabled (``injection_rate = 0``), so the only RNG the
  simulator ever consults is the routing arbitration draw — which the
  checker scripts (see :mod:`repro.verify.choices`);
* an optional fault schedule (``repro.faults`` dicts), entering the state
  graph as deterministic timed edges;
* the detector cell under test (mechanism / threshold / promotion
  variant) and the recovery scheme.

Scenarios serialize to plain JSON (``dataclasses.asdict``) so refuted
invariants can be written out as replayable counterexample files, which
the ``from_dict`` methods read back field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.network.config import DetectorConfig, SimulationConfig

#: Fault windows ending at or beyond this cycle are treated as permanent:
#: the end edge is beyond any explored horizon, so the checker's claims
#: are about the system with the fault never healing.
PERMANENT = 1 << 20


@dataclass(frozen=True)
class MessageSpec:
    """One scripted message with a nondeterministic injection window.

    The message may be enqueued at its source on any cycle in
    ``[earliest, latest]`` (the checker branches on every choice);
    reaching ``latest`` forces the injection so the pending set always
    drains.  ``latest=None`` allows deferring forever (one extra
    self-loop lobe in the state graph — use sparingly).
    """

    source: int
    dest: int
    length: int
    earliest: int = 0
    latest: Optional[int] = 0

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MessageSpec":
        return cls(
            source=int(payload["source"]),
            dest=int(payload["dest"]),
            length=int(payload["length"]),
            earliest=int(payload.get("earliest", 0)),
            latest=(
                None
                if payload.get("latest", 0) is None
                else int(payload.get("latest", 0))
            ),
        )


@dataclass(frozen=True)
class VerifyScenario:
    """Network + scripted workload + fault class (mechanism-independent)."""

    name: str
    messages: Tuple[MessageSpec, ...]
    topology: str = "torus"
    radix: int = 2
    dimensions: int = 1
    vcs_per_channel: int = 1
    buffer_depth: int = 1
    #: Fault schedule as ``repro.faults`` spec dicts (JSON-shaped).
    faults: Tuple[Dict[str, Any], ...] = ()
    #: Report label grouping scenarios by the fault family they exercise.
    fault_class: str = "none"

    @property
    def num_nodes(self) -> int:
        return self.radix**self.dimensions

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VerifyScenario":
        return cls(
            name=str(payload["name"]),
            messages=tuple(
                MessageSpec.from_dict(m) for m in payload["messages"]
            ),
            topology=str(payload.get("topology", "torus")),
            radix=int(payload.get("radix", 2)),
            dimensions=int(payload.get("dimensions", 1)),
            vcs_per_channel=int(payload.get("vcs_per_channel", 1)),
            buffer_depth=int(payload.get("buffer_depth", 1)),
            faults=tuple(dict(f) for f in payload.get("faults", [])),
            fault_class=str(payload.get("fault_class", "none")),
        )


@dataclass(frozen=True)
class VerifyCase:
    """A scenario paired with the detector cell and recovery under test."""

    scenario: VerifyScenario
    mechanism: str = "ndm"
    threshold: int = 3
    t1: int = 1
    selective_promotion: bool = False
    probe_max_hops: int = 16
    probe_max_outstanding: int = 8
    recovery: str = "none"

    @property
    def promotion(self) -> str:
        """Report label for the promotion axis (NDM only)."""
        if self.mechanism == "ndm":
            return "selective" if self.selective_promotion else "simple"
        return "n/a"

    def label(self) -> str:
        bits = [self.scenario.name, self.mechanism]
        if self.promotion != "n/a":
            bits.append(self.promotion)
        if self.recovery != "none":
            bits.append(self.recovery)
        return "/".join(bits)

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            mechanism=self.mechanism,
            threshold=self.threshold,
            t1=self.t1,
            selective_promotion=self.selective_promotion,
            probe_max_hops=self.probe_max_hops,
            probe_max_outstanding=self.probe_max_outstanding,
        )

    def build_config(self, engine: str = "event") -> SimulationConfig:
        """The exact :class:`SimulationConfig` the checker simulates.

        Generation, injection limitation, the periodic ground-truth
        sweep and detection-time grading are all off: the checker scripts
        the workload itself and runs the oracle per explored state.
        """
        sc = self.scenario
        config = SimulationConfig(
            topology=sc.topology,
            radix=sc.radix,
            dimensions=sc.dimensions,
            vcs_per_channel=sc.vcs_per_channel,
            buffer_depth=sc.buffer_depth,
            injection_ports=1,
            ejection_ports=1,
            routing="fully-adaptive",
            injection_limit_fraction=None,
            detector=self.detector_config(),
            recovery=self.recovery,
            faults=[dict(f) for f in sc.faults] or None,
            engine=engine,
            seed=0,
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            ground_truth_interval=0,
            ground_truth_on_detection=False,
        )
        config.traffic.injection_rate = 0.0
        config.validate()
        return config

    # ------------------------------------------------------------------
    # Encoding parameters (see repro.verify.encode)
    # ------------------------------------------------------------------
    @property
    def counter_cap(self) -> int:
        """Clamp for relative counters: past this, every ``> threshold``
        predicate any mechanism evaluates is already decided."""
        return max(self.threshold, self.t1) + 2

    @property
    def max_counter_lag(self) -> int:
        """Largest counter-lag any fault in the schedule can install."""
        return max(
            (int(f.get("lag", 0)) for f in self.scenario.faults), default=0
        )

    @property
    def blocked_period(self) -> int:
        """Residue preserved when clamping blocked ages.

        The probe launch cadence is periodic in ``cycle - blocked_since``
        with period ``threshold``, so clamped ages must keep their value
        mod the period; every other mechanism only compares the age
        against a threshold (period 1 suffices).
        """
        return self.threshold if self.mechanism == "probe" else 1

    @property
    def time_mod(self) -> int:
        """Fairness-rotation residue: the phase visit order rotates the
        conceptual list by ``cycle % len(list)``, and every list length
        is at most the scripted message count."""
        n = max(1, len(self.scenario.messages))
        return math.lcm(*range(1, n + 1))

    @property
    def horizon(self) -> int:
        """Last cycle at which absolute time still matters.

        Beyond the horizon no scripted injection window opens or forces,
        and no (finite) fault edge fires, so states further out are
        time-shift invariant modulo :attr:`time_mod` and the clamped
        relative counters.
        """
        last = 0
        for spec in self.scenario.messages:
            last = max(last, spec.earliest)
            if spec.latest is not None:
                last = max(last, spec.latest)
        for fault in self.scenario.faults:
            last = max(last, int(fault.get("start", 0)))
            end = int(fault.get("end", 0))
            if end < PERMANENT:
                last = max(last, end)
        return last + 1

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VerifyCase":
        return cls(
            scenario=VerifyScenario.from_dict(payload["scenario"]),
            mechanism=str(payload.get("mechanism", "ndm")),
            threshold=int(payload.get("threshold", 3)),
            t1=int(payload.get("t1", 1)),
            selective_promotion=bool(payload.get("selective_promotion", False)),
            probe_max_hops=int(payload.get("probe_max_hops", 16)),
            probe_max_outstanding=int(payload.get("probe_max_outstanding", 8)),
            recovery=str(payload.get("recovery", "none")),
        )
