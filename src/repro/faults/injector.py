"""Runtime fault application: compiled schedules driving channel state.

The :class:`FaultInjector` compiles a list of :class:`FaultSpec` windows
into per-cycle *edge* operations and applies them at the start of every
simulator cycle, before any phase reads channel state.  All effects are
expressed through four fields on :class:`PhysicalChannel` —
``fault_down`` / ``stuck_mask`` / ``usable_mask`` for availability and
``counter_lag`` for the counter faults — so the simulation phases stay
oblivious to *why* a lane is unusable.

Determinism contract: edges fire in spec order within a cycle, mutate only
integer channel state, and draw nothing from any RNG; a schedule is part
of the config hash, so (config, seed, schedule) fully determines the run
on both engines.  Every edge cycle ends with
:meth:`Simulator.wake_all_parked` — a fault appearing or healing
invalidates the event engine's parking proofs (a parked header's feasible
set may have gained a usable lane, a wedged worm may be able to drain), so
all parked state conservatively re-evaluates.  Edges are rare, making the
O(active messages) wake cost negligible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.faults.spec import FaultSpec
from repro.network.channel import PhysicalChannel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.simulator import Simulator

#: Edge op codes: (code, channel, arg) applied at one cycle.
_DOWN_ON = 0
_DOWN_OFF = 1
_STUCK_ON = 2
_STUCK_OFF = 3
_LAG = 4
_FREEZE_ON = 5
_FREEZE_OFF = 6

_OP_NAMES = {
    _DOWN_ON: "link-down",
    _DOWN_OFF: "link-up",
    _STUCK_ON: "vc-stuck",
    _STUCK_OFF: "vc-unstuck",
    _LAG: "counter-lag",
    _FREEZE_ON: "counter-freeze",
    _FREEZE_OFF: "counter-thaw",
}

_Op = Tuple[int, PhysicalChannel, int]


class FaultInjector:
    """Applies a compiled fault schedule to one simulator instance.

    Compiled against ``sim``'s channels, it keeps no reference to the
    simulator: :meth:`apply` is handed it every cycle.
    """

    def __init__(self, sim: "Simulator", specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        #: cycle -> edge ops, in spec order (insertion order is spec order).
        self._edges: Dict[int, List[_Op]] = {}
        #: Active counter-freeze windows: (channel, start, end).
        self._freezes: List[Tuple[PhysicalChannel, int, int]] = []
        #: Overlapping-window refcounts, keyed by channel index (and lane).
        self._down_refs: Dict[int, int] = {}
        self._stuck_refs: Dict[Tuple[int, int], int] = {}
        for spec in self.specs:
            spec.validate()
            self._compile(sim, spec)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, sim: "Simulator", spec: FaultSpec) -> None:
        channels = sim.channels
        if spec.kind == "router-stall":
            node = spec.node
            assert node is not None
            if node >= len(sim.routers):
                raise ValueError(
                    f"router-stall fault targets node {node}, but the "
                    f"network has {len(sim.routers)} nodes"
                )
            router = sim.routers[node]
            # A stalled crossbar switches nothing: everything the router
            # drives goes dark, and its injection ports accept nothing.
            # Upstream links into the router keep transmitting (their
            # buffers live in this router and simply fill up).
            targets = (
                list(router.output_pc_list)
                + list(router.ejection_pcs)
                + list(router.injection_pcs)
            )
            for pc in targets:
                self._push(spec.start, (_DOWN_ON, pc, 0))
                self._push(spec.end, (_DOWN_OFF, pc, 0))
            return
        channel = spec.channel
        assert channel is not None
        if channel >= len(channels):
            raise ValueError(
                f"{spec.kind} fault targets channel {channel}, but the "
                f"network has {len(channels)} channels"
            )
        pc = channels[channel]
        if spec.kind == "link-down":
            self._push(spec.start, (_DOWN_ON, pc, 0))
            self._push(spec.end, (_DOWN_OFF, pc, 0))
        elif spec.kind == "vc-stuck":
            lane = spec.lane
            assert lane is not None
            if lane >= pc.num_vcs:
                raise ValueError(
                    f"vc-stuck fault targets lane {lane} of channel "
                    f"{channel}, which has {pc.num_vcs} lanes"
                )
            self._push(spec.start, (_STUCK_ON, pc, lane))
            self._push(spec.end, (_STUCK_OFF, pc, lane))
        elif spec.kind == "counter-lag":
            self._push(spec.start, (_LAG, pc, spec.lag))
        else:  # counter-freeze
            self._push(spec.start, (_FREEZE_ON, pc, 0))
            self._push(spec.end, (_FREEZE_OFF, pc, 0))
            self._freezes.append((pc, spec.start, spec.end))

    def _push(self, cycle: int, op: _Op) -> None:
        self._edges.setdefault(cycle, []).append(op)

    # ------------------------------------------------------------------
    # Per-cycle application
    # ------------------------------------------------------------------
    def apply(self, sim: "Simulator", cycle: int) -> None:
        """Apply this cycle's fault edges to ``sim`` (called at the top of
        ``step``)."""
        # Counter-freeze upkeep: while a window covers an *occupied*
        # channel, the lag grows one cycle per cycle so the reading holds
        # at its window-start value (a flit reset zeroes both and the
        # reading then freezes at zero).  Strictly-inside test: the
        # reading is natural at ``start`` and resumes advancing at ``end``.
        for pc, start, end in self._freezes:
            if start < cycle < end and pc.occupied_count > 0:
                pc.counter_lag += 1
        ops = self._edges.get(cycle)
        if not ops:
            return
        tracer = sim.tracer
        for code, pc, arg in ops:
            if code == _DOWN_ON:
                refs = self._down_refs.get(pc.index, 0) + 1
                self._down_refs[pc.index] = refs
                if refs == 1:
                    pc.fault_down = True
                    pc.recompute_usable()
            elif code == _DOWN_OFF:
                refs = self._down_refs.get(pc.index, 0) - 1
                self._down_refs[pc.index] = refs
                if refs == 0:
                    pc.fault_down = False
                    pc.recompute_usable()
            elif code == _STUCK_ON:
                key = (pc.index, arg)
                refs = self._stuck_refs.get(key, 0) + 1
                self._stuck_refs[key] = refs
                if refs == 1:
                    pc.stuck_mask |= 1 << arg
                    pc.recompute_usable()
            elif code == _STUCK_OFF:
                key = (pc.index, arg)
                refs = self._stuck_refs.get(key, 0) - 1
                self._stuck_refs[key] = refs
                if refs == 0:
                    pc.stuck_mask &= ~(1 << arg)
                    pc.recompute_usable()
            elif code == _LAG:
                pc.counter_lag += arg
            # _FREEZE_ON / _FREEZE_OFF mutate nothing here: the upkeep
            # loop above carries the window; the edge exists for tracing
            # and for waking parked state at the thaw boundary.
            sim.stats.fault_edges += 1
            if tracer is not None:
                tracer.record(
                    ("fault", cycle, -1, pc.index, _OP_NAMES[code], arg)
                )
        # Any edge invalidates parking proofs (see module docstring).
        sim.wake_all_parked()
