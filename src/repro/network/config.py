"""Simulation configuration.

One :class:`SimulationConfig` fully determines a simulation run (given the
seed, runs are bit-reproducible).  The defaults mirror the paper's network
model (Sec. 4.1): true fully adaptive routing, 3 virtual channels per
physical channel, 4-flit buffers, four injection/ejection ports per node,
message injection limitation, and the new detection mechanism with t1 = 1.

The full-scale topology of the paper is ``radix=8, dimensions=3`` (512
nodes); the default here is the 64-node 8-ary 2-cube used by the quick
benchmark mode (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.network.routing import routing_function_class
from repro.network.topology import Topology, shared_topology


@dataclass
class TrafficConfig:
    """Workload: destination pattern, message lengths and injection rate.

    Attributes:
        pattern: destination pattern name (see ``repro.traffic.patterns``).
        pattern_params: extra keyword arguments for the pattern
            (e.g. ``{"radius": 1}`` for locality, ``{"fraction": 0.05}``
            for hot-spot).
        lengths: the paper's message-size workload (see
            ``repro.traffic.lengths``): ``"s"`` (16 flits), ``"l"`` (64),
            ``"L"`` (256) or ``"sl"`` (60 % 16-flit / 40 % 64-flit).
        injection_rate: offered load in flits/cycle/node (the paper's unit).
    """

    pattern: str = "uniform"
    pattern_params: Dict[str, Any] = field(default_factory=dict)
    lengths: str = "s"
    injection_rate: float = 0.2


@dataclass
class DetectorConfig:
    """Which deadlock detection mechanism runs and with what thresholds.

    Attributes:
        mechanism: ``"ndm"`` (the paper's contribution), ``"pdm"``
            (previous mechanism [13]), ``"timeout"`` (crude header-blocked
            timeout, Disha-style), ``"source-age"`` / ``"injection-stall"``
            (source-side timeouts [16], [10]), ``"probe"`` (edge-chasing
            probe family, ``repro.core.probe``) or ``"none"``.
        threshold: the detection threshold in cycles (t2 for NDM, the IF
            threshold for PDM, the timeout for the crude mechanisms, the
            probe launch cadence for the probe family).
        t1: NDM inactivity threshold for the I flag (paper uses 1 cycle).
        selective_promotion: if True, use the selective variant of the NDM
            G/P promotion rule (only inputs waiting on the reset output are
            promoted) instead of the paper's simple all-P-to-G variant.
        probe_max_hops: probe family only — hard cap on a probe's path
            length; a wait cycle longer than this is undetectable by
            configuration.
        probe_max_outstanding: probe family only — storm guard capping the
            probes simultaneously in flight per initiator session.
    """

    mechanism: str = "ndm"
    threshold: int = 32
    t1: int = 1
    selective_promotion: bool = False
    probe_max_hops: int = 64
    probe_max_outstanding: int = 64


@dataclass
class SimulationConfig:
    """Everything needed to build and run one simulation."""

    # --- topology -----------------------------------------------------
    topology: str = "torus"  # "torus" (k-ary n-cube) or "mesh"
    radix: int = 8
    dimensions: int = 2

    # --- router / channel model (paper Sec. 4.1) ----------------------
    vcs_per_channel: int = 3
    buffer_depth: int = 4
    injection_ports: int = 4
    ejection_ports: int = 4
    routing: str = "fully-adaptive"
    #: If True, at most one flit per cycle may leave each input physical
    #: channel through the crossbar (per-physical-port crossbar).  The
    #: paper's model is a full crossbar switch (per-VC ports), so the
    #: default leaves only the channel-side constraint of one flit per
    #: cycle per physical channel.
    crossbar_input_limit: bool = False

    # --- injection limitation [11, 12] ---------------------------------
    #: Inject a new message only while the number of busy network output
    #: VCs at the node is *at most* floor(fraction * total).  ``None``
    #: disables the mechanism.
    injection_limit_fraction: Optional[float] = 0.4

    # --- workload -------------------------------------------------------
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    # --- deadlock handling ----------------------------------------------
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: "progressive" (recovery-lane delivery, default), "progressive-reinject"
    #: (absorb and re-inject at the header node), "regressive"
    #: (abort-and-retry at the source) or "none".
    recovery: str = "progressive"

    # --- fault injection --------------------------------------------------
    #: Deterministic fault schedule: a list of fault-spec dicts (see
    #: ``repro.faults.spec.FaultSpec`` and docs/faults.md), or ``None``
    #: for a healthy network.  Kept in plain JSON-safe form so schedules
    #: flow through config hashing, the campaign cache and provenance
    #: unchanged; the simulator parses and compiles them at build time.
    faults: Optional[List[Dict[str, Any]]] = None

    # --- simulation engine ----------------------------------------------
    #: ``"event"`` (default) parks fully blocked messages and frozen worms
    #: between wakeup events — VC releases, inactivity-counter resumes,
    #: G/P promotions, detection deadlines — instead of re-scanning them
    #: every cycle; ``"scan"`` is the reference per-cycle scan that the
    #: equivalence tests, ``repro faults conformance`` and ``repro verify``
    #: run beside it.  Both produce bit-identical runs (asserted by
    #: ``tests/network/test_engine_equivalence.py``); "event" is much
    #: faster at and beyond saturation.  Not a campaign knob: whether
    #: cells share a trajectory is read off the cells
    #: (``repro.network.batch.batch_eligible``).
    engine: str = "event"
    #: Record wall-clock time per simulation phase (``stats.phase_time``)
    #: via two ``perf_counter`` calls per phase per cycle.  Off by default:
    #: the timer calls themselves are measurable on the hot path, so they
    #: are only taken when profiling is requested (the benchmark's traced
    #: passes and docs/performance.md, *Profiling workflow*, turn this on).
    #: With the flag off ``phase_time`` stays at its zero-initialized
    #: values, and a campaign cell record leaves it out.
    profile_phases: bool = False

    # --- run control ------------------------------------------------------
    seed: int = 1
    warmup_cycles: int = 1000
    measure_cycles: int = 5000
    #: After measurement, keep simulating (without generating new traffic)
    #: for at most this many cycles so in-flight messages can drain.
    drain_cycles: int = 0
    #: Run the ground-truth deadlock analyzer every N cycles (0 disables the
    #: periodic sweep; detections are still graded when
    #: ``ground_truth_on_detection`` is set).
    ground_truth_interval: int = 200
    #: Whether to grade each detection event as true/false deadlock, against
    #: the network at the instant the message is marked.
    ground_truth_on_detection: bool = True
    #: Cap on source queue length per node; generation stalls (and is
    #: counted) when the queue is full.  0 means unbounded.
    source_queue_limit: int = 0

    # ------------------------------------------------------------------
    def build_topology(self) -> Topology:
        return shared_topology(self.topology, self.radix, self.dimensions)

    def injection_limit(self, total_network_vcs: int) -> Optional[int]:
        """Busy-VC cap implied by ``injection_limit_fraction`` (or None)."""
        if self.injection_limit_fraction is None:
            return None
        if not 0.0 < self.injection_limit_fraction <= 1.0:
            raise ValueError(
                "injection_limit_fraction must be in (0, 1], got "
                f"{self.injection_limit_fraction}"
            )
        return int(math.floor(self.injection_limit_fraction * total_network_vcs))

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings: every setting a
        build would reject, with the build's message, constructing nothing."""
        # Every channel reads its free lanes from one shared table of
        # 2**vcs_per_channel entries (repro.network.channel).
        if not 1 <= self.vcs_per_channel <= 8:
            raise ValueError("vcs_per_channel must be in 1..8")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.injection_ports < 1 or self.ejection_ports < 1:
            raise ValueError("need at least one injection and ejection port")
        if self.traffic.injection_rate < 0:
            raise ValueError("injection_rate must be >= 0")
        if self.warmup_cycles < 0 or self.measure_cycles < 1:
            raise ValueError("warmup_cycles >= 0 and measure_cycles >= 1 required")
        for name in ("drain_cycles", "ground_truth_interval", "source_queue_limit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # The mechanism's declaration rejects what its constructor would
        # (imported here: repro.core imports this module).
        from repro.core.registry import detector_class

        detector_class(self.detector.mechanism).from_config(self.detector)
        if self.detector.probe_max_hops < 1:
            raise ValueError("probe_max_hops must be >= 1")
        if self.detector.probe_max_outstanding < 1:
            raise ValueError("probe_max_outstanding must be >= 1")
        # "batch" stays a spelling of "event": benchmarks/spine asks for it.
        if self.engine not in ("event", "scan", "batch"):
            raise ValueError(
                f"unknown engine {self.engine!r}; choose 'event' or 'scan'"
            )
        # Registry lookups (imported here: repro.core and repro.traffic
        # import this module).
        from repro.core.recovery import RECOVERY_SCHEMES
        from repro.traffic.lengths import check_length_spec_name
        from repro.traffic.patterns import pattern_class

        if self.recovery not in RECOVERY_SCHEMES:
            raise ValueError(f"unknown recovery scheme {self.recovery!r}")
        routing_function_class(self.routing)
        pattern_class(self.traffic.pattern)
        check_length_spec_name(self.traffic.lengths)
        self.injection_limit(0)  # raises on a fraction outside (0, 1]
        if self.faults:
            # Imported here: repro.faults is a leaf package, but config is
            # imported everywhere and should not pull it in unconditionally.
            from repro.faults.spec import validate_fault_dicts

            validate_fault_dicts(self.faults)
        self.build_topology()  # validates radix/dimensions

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serializable) for results provenance:
        ``dataclasses.asdict`` without its deep copy of every scalar leaf."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["traffic"] = _copied(vars(self.traffic))
        data["detector"] = dict(vars(self.detector))
        data["faults"] = _copied(self.faults)
        return data

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; validates the rebuilt config."""
        data = dict(payload)
        traffic = TrafficConfig(**data.pop("traffic"))
        detector = DetectorConfig(**data.pop("detector"))
        config = cls(traffic=traffic, detector=detector, **data)
        config.validate()
        return config

    def replace(self, **changes: Any) -> "SimulationConfig":
        """Copy with top-level fields replaced (nested configs deep-copied).

        Copies attributes without running a constructor: a campaign plan
        copies every cell's config this way.
        """
        unknown = changes.keys() - _FIELD_NAMES
        if unknown:
            raise TypeError(
                f"SimulationConfig has no field(s) {sorted(unknown)}"
            )
        traffic = _attribute_copy(self.traffic)
        traffic.pattern_params = dict(traffic.pattern_params)
        clone = _attribute_copy(self)
        clone.traffic = traffic
        clone.detector = _attribute_copy(self.detector)
        if self.faults is not None:
            clone.faults = [dict(f) for f in self.faults]
        vars(clone).update(changes)
        return clone


#: ``SimulationConfig``'s fields, in declaration order.
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SimulationConfig))


def _attribute_copy(obj: Any) -> Any:
    """Shallow copy of a plain dataclass instance, bypassing ``__init__``."""
    clone = object.__new__(type(obj))
    vars(clone).update(vars(obj))
    return clone


def _copied(value: Any) -> Any:
    """``value`` with every dict, list and tuple in it copied."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(v) for v in value)
    return value


def paper_config() -> SimulationConfig:
    """The paper's full-scale configuration: 8-ary 3-cube, 512 nodes."""
    return SimulationConfig(radix=8, dimensions=3)


def quick_config() -> SimulationConfig:
    """Scaled-down configuration for tests and quick benchmarks (64 nodes)."""
    return SimulationConfig(radix=8, dimensions=2)
