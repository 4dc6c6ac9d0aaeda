"""Batch backend: many detector cells of a campaign over one trajectory.

A campaign grid (see ``repro.experiments.spec``) re-runs the *same*
network — topology, workload, seed, windows — once per detector cell.
With ``recovery="none"`` detection has **zero feedback** into the
network, whatever the mechanism:

* ``NoRecovery.recover`` is a no-op, so a detected worm keeps its
  channels exactly like an undetected one;
* detector state (G/P flags, waiter maps, witnesses) is read only by
  the detector — routing and flit movement never consult it;
* probe sessions live in a dedicated out-of-band phase and never touch
  routing or channel state;
* failed routing attempts draw nothing from the RNG.

Hence the *flit-level* trajectory — channel occupancy, inactivity
counters, RNG stream, ground-truth sweeps — is identical for every
cell, across thresholds **and mechanisms**, and so is the oracle's grade
of a detection, which reads only the network at the detection's
instant.  What is *not* identical is the per-run detector bookkeeping:
a reference run skips every ``on_blocked_attempt`` of a marked message,
and which messages are marked when differs per cell.
:class:`BatchObserver` therefore keeps all marking-coupled state per
cell:

* one pending mask per message (bit r clear == cell r has detected it),
  which screens each cell's detector calls as ``marked_deadlocked``
  screens a solo run's;
* threshold ladders for the cells whose class states a score (see
  ``DeadlockDetector.score``): a solo detector compares it with its one
  threshold, ``BatchObserver._sweep`` counts the rungs of each
  :class:`_Family`'s ladder under it (``bisect_left``).  The NDM G/P
  flag per input channel is a mask over the ndm ladder's bits (bit r
  set == cell r sees G) in the inherited ``NewDetectionMechanism.gp``;
* for every other cell a *unit*: the cell's own detector instance,
  which sees the hooks its solo run sees.  Probe units read "already
  marked" through the transport's ``_marked`` seam narrowed to the
  cell's bit.

The source-side ladders sweep a message only once its ``deadline`` at
its lowest pending rung has come, off a heap, not every in-flight
message per cycle.  :class:`BatchSimulator` advances the network
**once** with that observer, then folds the shared run's statistics
into K per-cell :class:`~repro.metrics.stats.SimulationStats` that are
bit-identical to K independent ``engine="event"`` runs (asserted by
``tests/network/test_batch_engine.py`` over the equivalence corpus and
checked on every run of the ``detgrid-norecovery`` workload of
``benchmarks/spine``).

Cell state is plain integers: per-message and per-channel bitmasks over
the rank order (ladder cells, then units; registry order, ascending
threshold, ties in input order — giving each ladder a contiguous bit
range) and per-cell counter lists, reduced in that **fixed order**, so
results are independent of ``PYTHONHASHSEED`` and host.  Every given
cell is a rank of its own: the fold keeps no notion of equal cells.
Nothing here needs an array library: the trajectory is the simulator's
own, and the per-wake reductions are O(feasible channels).
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis import deadlock
from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.core.probe import ProbeDetection
from repro.metrics.stats import DetectionTally, SimulationStats
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.message import Message
from repro.network.probes import ProbeTransport
from repro.network.simulator import Simulator
from repro.network.types import DetectionEvent, MessageStatus, PortKind

#: Constant: the fold needs no numpy.  The name stays because the frozen
#: benchmark (benchmarks/spine) reads it.
HAVE_NUMPY = True


def batch_eligible(config: SimulationConfig) -> bool:
    """True when ``config``'s cell may join a shared trajectory.

    Requires every source of detection feedback to be absent: no
    recovery and a fault-free schedule (fault edges wake parked state
    conservatively, which is sound but makes per-cell telemetry — and
    conformance accounting — threshold-coupled).  Any mechanism then
    folds.  ``engine="scan"`` is the reference the fold is checked
    against and is never folded.
    """
    return config.recovery == "none" and config.engine != "scan" and not config.faults


#: The detector fields one fold group's cells may differ in.
_CELL_FIELDS = (
    "mechanism",
    "threshold",
    "selective_promotion",
    "probe_max_hops",
    "probe_max_outstanding",
)


def batch_group_key(
    config: SimulationConfig, masked: Sequence[str] = _CELL_FIELDS
) -> str:
    """Canonical identity of a config modulo the ``masked`` detector fields.

    By default those are its detector cell: two eligible configs with
    equal keys differ at most in the detection mechanism, its threshold,
    the promotion variant and the probe storm-guard caps, and may
    therefore join one
    :class:`BatchSimulator` group.  ``t1`` is *not* masked: the shared
    G/P dynamics are armed with one t1, so cells disagreeing on it must
    not share a trajectory.
    """
    payload = config.to_dict()
    detector = payload["detector"] = dict(payload["detector"])
    for name in masked:
        detector[name] = None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Family(NamedTuple):
    """One mechanism's threshold ladder on the shared run: a contiguous
    rank range (``mask``, from bit ``base``) in ascending threshold order,
    read through the class's own ``score`` / ``deadline`` — the very
    definitions its solo runs call."""

    mask: int
    base: int
    ladder: List[int]
    score: Callable[[Message, int], int]
    deadline: Callable[[Message, int, int], Optional[int]]


class _CellProbeTransport(ProbeTransport):
    """Probe transport whose marked test is one cell's pending bit.

    In the shared run nothing ever sets ``marked_deadlocked``, so the
    transport's staleness/progress/victim reads must instead consult
    whether *this cell* has already detected the message — exactly the
    reference run's view, where a marked message stales its session.
    """

    def __init__(
        self, max_hops: int, max_outstanding: int, pending: Dict[int, int], rank: int
    ) -> None:
        super().__init__(max_hops, max_outstanding)
        # The owner's pending masks, not the owner, which holds this
        # transport: a pointer back would close a reference cycle.
        self._pending = pending
        self._bit = 1 << rank

    def _marked(self, message: Message) -> bool:
        bit = self._bit
        return not self._pending.get(message.id, bit) & bit


class _BatchProbeCell(ProbeDetection):
    """A probe unit: its transport's marked test is the cell's pending bit.

    Counters stay in the per-cell transport — :meth:`_flush_counters`
    is disabled so the *shared* stats keep their zero defaults, and
    ``BatchObserver.fold_cell`` writes them into the cell's stats.
    """

    def __init__(
        self, rank: int, cell: DetectorConfig, pending: Dict[int, int]
    ) -> None:
        caps = (cell.probe_max_hops, cell.probe_max_outstanding)
        super().__init__(cell.threshold, *caps)
        self.transport = _CellProbeTransport(*caps, pending, rank)

    def _flush_counters(self, sim: Simulator) -> None:
        """No-op: the owner folds transport counters per cell instead."""


class BatchObserver(NewDetectionMechanism):
    """K detector cells — across mechanisms — on one shared trajectory.

    Each given cell gets its own rank — ladder cells first, then family,
    then ascending threshold, ties in input order — so each threshold
    ladder owns a contiguous bit range of the per-message pending masks;
    a duplicate cell is a rank of its own and folds to equal stats.
    The NDM G/P flag of each input channel is kept per ladder cell —
    the inherited ``gp`` masks over the ndm ladder's bits
    (``gp_all``) — because the reference runs disagree on it: once cell r
    marks a message, that run skips the message's later detector calls,
    so its first-attempt G/P writes at subsequent hops never happen *in
    that run*.  So a first-attempt write by message ``m`` lands only in
    the ndm cells still pending on ``m``, while channel-level events
    (routing success, lane release, reactivation promotion) land in all.

    Every other cell (probe, ndm with selective promotion, ndm-precise,
    none) rides as a *unit*, its own detector instance, and sees the
    hooks its solo run sees: ``on_blocked_attempt`` and
    ``blocked_deadline`` only while the cell's pending bit is set,
    ``on_message_routed``, ``on_vc_released`` and ``on_i_reset`` always.
    No unit needs ``on_message_removed`` (recovery only) or
    ``periodic_check`` (every periodic mechanism rides a ladder).
    Parking stays on unless some unit cannot sleep.

    Detections are *recorded* per cell instead of marking the message:
    :meth:`on_blocked_attempt` always returns False, so the simulator
    never mutates the shared trajectory on behalf of any cell.
    """

    # Recorded detection events carry the *cell's* mechanism name (see
    # ``_record``); this name only labels the composite itself.
    name = "batch"

    # Narrowed per *instance* in ``__init__``: only groups holding a
    # periodic (source-age / injection-stall) or probe cell pay those
    # phases; the class-level True states the contract the protocol walk
    # in tests/core/test_registry.py checks.
    needs_periodic_check = True
    has_probe_phase = True

    def __init__(self, cells: Sequence[DetectorConfig]) -> None:
        # Imported here: repro.core.registry imports network.config, and a
        # module-level import back into repro.network would be cyclic.
        from repro.core.registry import (
            detector_class,
            detector_names,
            make_detector,
            threshold_monotone,
        )

        if not cells:
            raise ValueError("need at least one detector cell")
        ndm_name = NewDetectionMechanism.name
        # A cell rides a ladder when its class states a score, save ndm
        # under selective promotion, whose waiter maps are per run.
        on_ladder = [
            threshold_monotone(cell)
            and not (cell.mechanism == ndm_name and cell.selective_promotion)
            for cell in cells
        ]
        # Rank order: ladders (ndm first keeps the G/P masks' bit range
        # anchored at the low bits), then units; registry order, ascending
        # threshold, ties in input order.  It is the fixed reduction
        # order that keeps fold results independent of PYTHONHASHSEED.
        family_order = {name: i for i, name in enumerate(detector_names())}
        ordered = sorted(
            range(len(cells)),
            key=lambda i: (
                not on_ladder[i],
                family_order[cells[i].mechanism],
                cells[i].threshold,
            ),
        )
        ndm_cells = [cell for cell in cells if cell.mechanism == ndm_name]
        t1s = {int(cell.t1) for cell in ndm_cells}
        if len(t1s) > 1:
            raise ValueError(
                f"ndm cells disagree on t1 ({sorted(t1s)}); the shared G/P "
                "dynamics are armed with a single t1"
            )
        # The composite reuses the NDM arming machinery with the group's
        # one t1; its own threshold is cosmetic — the lowest ndm cell's,
        # so the ctor's t1 < t2 check covers every ndm cell, and 2 (over
        # the default t1) for an ndm-free group.
        if t1s:
            super().__init__(min(cell.threshold for cell in ndm_cells), t1=t1s.pop())
        else:
            super().__init__(threshold=2)
        #: The cells in rank order.
        self.cells: List[DetectorConfig] = [cells[i] for i in ordered]
        #: Input position -> rank.
        self.ranks: List[int] = [0] * len(cells)
        for rank, i in enumerate(ordered):
            self.ranks[i] = rank
        k = len(ordered)
        self._full_mask = (1 << k) - 1
        #: message id -> bitmask of cells that have not yet detected it.
        self._pending: Dict[int, int] = {}
        #: The ladders evaluated on routing attempts and those evaluated
        #: in the checks phase — each a contiguous bit range of the
        #: pending masks; the ndm ladder's range (0 without ndm ladder
        #: cells) is also the range of the G/P masks, ``gp_all``.
        self.gp_all = 0
        self._attempt_families: List[_Family] = []
        self._periodic_families: List[_Family] = []
        ladder = [cell for cell, i in zip(self.cells, ordered) if on_ladder[i]]
        for name in family_order:
            ranks = [r for r, cell in enumerate(ladder) if cell.mechanism == name]
            if not ranks:
                continue
            cls = detector_class(name)
            family = _Family(
                ((1 << len(ranks)) - 1) << ranks[0],
                ranks[0],
                [ladder[r].threshold for r in ranks],
                cls.score,
                cls.deadline,
            )
            if cls.needs_periodic_check:
                self._periodic_families.append(family)
            else:
                self._attempt_families.append(family)
            if cls is NewDetectionMechanism:
                self.gp_all = family.mask
        #: rank -> the cell's own detector, for every cell no ladder carries.
        self._units: Dict[int, DeadlockDetector] = {
            rank: _BatchProbeCell(rank, cell, self._pending)
            if cell.mechanism == ProbeDetection.name
            else make_detector(cell)
            for rank, cell in enumerate(self.cells)
            if not on_ladder[ordered[rank]]
        }

        # (cell bit, unit) of the units whose class overrides ``hook``:
        # the hot hooks loop over these alone.
        def hooked(hook: str) -> Tuple[Tuple[int, DeadlockDetector], ...]:
            base = getattr(DeadlockDetector, hook)
            return tuple(
                (1 << rank, unit)
                for rank, unit in self._units.items()
                if getattr(type(unit), hook) is not base
            )

        self._attempt_units = hooked("on_blocked_attempt")
        self._deadline_units = hooked("blocked_deadline")
        self._phase_units = hooked("probe_phase")
        self._routed_units = tuple(unit for _, unit in hooked("on_message_routed"))
        self._released_units = tuple(unit for _, unit in hooked("on_vc_released"))
        self._reset_units = tuple(unit for _, unit in hooked("on_i_reset"))
        #: (cycle, message id) heap: when an in-flight message can next
        #: fire for a pending periodic cell (see :meth:`_schedule`).
        self._due: List[Tuple[int, int]] = []
        # Instance-level gates: the simulator caches these at build time.
        self.needs_periodic_check = bool(self._periodic_families)
        self.has_probe_phase = bool(self._phase_units)
        self.can_sleep_blocked = all(u.can_sleep_blocked for u in self._units.values())
        #: Per-cell detection counters and event log, rank order.
        self._tally = [DetectionTally() for _ in range(k)]
        # The oracle's input changes between two detections of a cycle
        # only when a header is granted a lane or first blocks; the
        # epoch counts those, so one snapshot grades every detection
        # before the next change (see :meth:`_record`).
        self._truth_epoch = 0
        self._snapshot_key = (-1, -1)
        self._snapshot: Set[Message] = set()

    def attach(self, sim: Simulator) -> None:
        if self.gp_all:
            super().attach(sim)  # all-P masks, armed I flags
        else:
            self.gp = [0] * len(sim.channels)
            self.reset_targets = [()] * len(sim.channels)
        for unit in self._units.values():
            unit.attach(sim)

    # The channel-level hooks below inline the parent's bodies (a reset to
    # P, a promotion to G in every ladder cell) instead of calling super():
    # they fire on every grant, lane release and I-flag reset.
    def on_message_routed(self, message: Message, cycle: int) -> None:
        """Reset to P in every ladder cell and forward to the units (the
        reference calls this hook even for marked messages)."""
        self._truth_epoch += 1
        input_pc = message.input_pc
        if input_pc is not None:
            self.gp[input_pc.index] = 0
            if input_pc.kind is PortKind.INJECTION and not message.first_attempt_done:
                self._schedule(message, cycle)  # else scheduled when it blocked
        for unit in self._routed_units:
            unit.on_message_routed(message, cycle)

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        self.gp[vc.pc.index] = 0
        for unit in self._released_units:
            unit.on_vc_released(vc, cycle)

    def on_i_reset(self, sim: Simulator, pc: PhysicalChannel, cycle: int) -> None:
        gp, full = self.gp, self.gp_all
        for i in self.reset_targets[pc.index]:
            if gp[i] != full:
                self._promote(sim, i, full)
        for unit in self._reset_units:
            unit.on_i_reset(sim, pc, cycle)

    # ------------------------------------------------------------------
    # Routing attempts (ndm / pdm / header timeout ladders, units)
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, sim: Simulator, message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        input_pc = message.input_pc
        if input_pc is None:  # pragma: no cover - headers always hold a VC
            return False
        if first_attempt:
            self._truth_epoch += 1
            if input_pc.kind is PortKind.INJECTION:
                self._schedule(message, cycle)
        pending = self._pending.get(message.id, self._full_mask)
        gate = self._full_mask
        ndm_mask = self.gp_all
        if ndm_mask:
            # Unlike pdm and the timeout, the reference applies the G/P
            # rule instead of detecting on *first* attempts, and only
            # cells seeing G can detect on later ones.  The rule's
            # outcome reads only shared state; the write lands in the
            # cells still pending on the message.
            gate ^= ndm_mask
            if first_attempt:
                live = pending & ndm_mask
                if live:
                    self._first_attempt(sim, message, input_pc, cycle, live)
            else:
                gate |= self.gp[input_pc.index]
        self._sweep(sim, self._attempt_families, (message,), cycle, gate)
        hit = 0
        for bit, unit in self._attempt_units:
            if pending & bit and unit.on_blocked_attempt(
                sim, message, cycle, first_attempt
            ):
                hit |= bit
        if hit:
            self._record(sim, message, cycle, hit)
        return False  # never mark: the trajectory is shared

    def _sweep(
        self,
        sim: Simulator,
        families: List[_Family],
        messages: Iterable[Message],
        cycle: int,
        gate: int,
    ) -> None:
        """Record, for each in-network message, the pending cells of
        ``gate`` whose rule fires on it now: per family, the rungs of the
        ladder under the message's score (the one place the fold compares
        a score with thresholds).  The loop body is the fold's hot spot
        (every failed routing attempt runs it), hence the hoisted gate,
        the floor test — most scores are under every rung — and one score
        per message for adjacent families sharing a rule (ndm and pdm)."""
        gated = [
            (f.mask & gate, f.base, f.ladder, f.ladder[0], f.score) for f in families
        ]
        pending_of, full = self._pending.get, self._full_mask
        in_network = MessageStatus.IN_NETWORK
        for m in messages:
            if m.status is not in_network:
                continue
            pending = pending_of(m.id, full)
            hit = 0
            rule: Optional[Callable[[Message, int], int]] = None
            for mask, base, ladder, floor, score_of in gated:
                live = pending & mask
                if live:
                    if score_of is not rule:
                        rule, score = score_of, score_of(m, cycle)
                    if score > floor:
                        hit |= live & (((1 << bisect_left(ladder, score)) - 1) << base)
            if hit:
                self._record(sim, m, cycle, hit)

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Composite deadline: the earliest any pending cell can detect.

        None-aware minimum over the attempt-driven ladders (ndm
        eligible = pending *and* seeing G; the others just pending) and
        the pending units' own deadlines.  Each ladder's deadline is
        monotone in t, so its minimum is realized by the smallest
        pending threshold; cells seeing P become eligible only through
        a promotion, which wakes the parked header itself.  Periodic
        cells (source-age, injection-stall) detect in the checks phase
        and probe cells in the probe phase, both independent of parking,
        so their ``blocked_deadline`` is None, as in a solo run.  Waking
        at the composite, failing the attempt and re-parking walks the
        chain until every cell's exact first-detection cycle has been
        visited.
        """
        input_pc = message.input_pc
        if input_pc is None:
            return None
        pending = live = self._pending.get(message.id, self._full_mask)
        if self.gp_all:
            live &= ~self.gp_all | self.gp[input_pc.index]
        best = self._earliest(self._attempt_families, message, cycle, live)
        for bit, unit in self._deadline_units:
            if pending & bit:
                d = unit.blocked_deadline(message, cycle)
                if d is not None and (best is None or d < best):
                    best = d
        return best

    @staticmethod
    def _earliest(
        families: List[_Family], message: Message, cycle: int, live_cells: int
    ) -> Optional[int]:
        """None-aware minimum over ``families`` of the deadline at the
        lowest rung in ``live_cells`` (each family's deadline is monotone
        in t, so that rung's is the family's earliest)."""
        best: Optional[int] = None
        for family in families:
            live = live_cells & family.mask
            if live:
                lowest = family.ladder[(live & -live).bit_length() - 1 - family.base]
                d = family.deadline(message, cycle, lowest)
                if d is not None and (best is None or d < best):
                    best = d
        return best

    # ------------------------------------------------------------------
    # Periodic families (source-age / injection-stall)
    # ------------------------------------------------------------------
    def _schedule(self, message: Message, cycle: int) -> None:
        """Queue ``message`` for the first cycle a pending periodic cell
        can fire on it.  Under recovery "none" the source-age deadline is
        exact and the injection-stall one a lower bound (its instant only
        moves later), so the entry pops no later than any firing.  First
        called at the message's first routing event, the cycle after its
        injection instant: no rung t >= 1 can have fired before."""
        pending = self._pending.get(message.id, self._full_mask)
        due = self._earliest(self._periodic_families, message, cycle, pending)
        if due is not None:
            heapq.heappush(self._due, (due, message.id))

    def periodic_check(self, sim: Simulator, cycle: int) -> List[Message]:
        """Record source-side timeout hits per cell; mark nothing.  Sweeps
        the messages due now, in the order a solo scan visits them, and
        re-schedules each; an id no longer in flight is dropped."""
        due = self._due
        if not due or due[0][0] > cycle:
            return []
        in_flight = sim.messages
        ids: Set[int] = set()
        while due and due[0][0] <= cycle:
            message_id = heapq.heappop(due)[1]
            if message_id in in_flight:
                ids.add(message_id)
        if not ids:
            return []
        if len(ids) == 1:
            messages = [in_flight[ids.pop()]]
        else:
            messages = [m for m in sim.active_messages if m.id in ids]
        self._sweep(sim, self._periodic_families, messages, cycle, self._full_mask)
        for m in messages:
            self._schedule(m, cycle)
        return []

    # ------------------------------------------------------------------
    # Probe units
    # ------------------------------------------------------------------
    def probe_phase(self, sim: Simulator, cycle: int) -> List[Message]:
        """Advance every probe unit; record its victims for its cell."""
        in_network = MessageStatus.IN_NETWORK
        for bit, unit in self._phase_units:
            for victim in unit.probe_phase(sim, cycle):
                # The reference applies the same screen before handling
                # a probe victim; the pending bit is the per-cell
                # "not yet marked".
                if (
                    victim.status is in_network
                    and self._pending.get(victim.id, self._full_mask) & bit
                ):
                    self._record(sim, victim, cycle, bit)
        return []

    # ------------------------------------------------------------------
    def _record(self, sim: Simulator, message: Message, cycle: int, hit: int) -> None:
        """Mark ``message`` in the hit cells (clear their pending bits)
        and tally one detection event per hit cell (ascending ranks).

        A solo run grades its mark against the network at the instant of
        marking.  Under recovery "none" a mark changes nothing the oracle
        reads, so every hit cell shares one grade, and the snapshot is
        taken once per ``(cycle, _truth_epoch)``.
        """
        self._pending[message.id] = (
            self._pending.get(message.id, self._full_mask) & ~hit
        )
        truly: Optional[bool] = None
        if sim.config.ground_truth_on_detection:
            key = (cycle, self._truth_epoch)
            if self._snapshot_key != key:
                # Looked up on its module per call, so a patch of the
                # oracle (a call-counting probe) sees these calls too.
                self._snapshot = deadlock.find_deadlocked(sim.active_messages)
                self._snapshot_key = key
            truly = message in self._snapshot
        node = message.header_router()
        if node is None:  # pragma: no cover - blocked headers sit in-network
            node = message.inject_node
        mask = hit
        while mask:
            low = mask & -mask
            rank = low.bit_length() - 1
            mask ^= low
            # recovery="none": a cell detects a message at most once, so
            # every detection is its message's first.
            self._tally[rank].record_detection(
                DetectionEvent(
                    cycle=cycle,
                    message_id=message.id,
                    node=node,
                    mechanism=self.cells[rank].mechanism,
                    truly_deadlocked=truly,
                ),
                sim.measuring,
                True,
            )

    def fold_cell(self, shared: SimulationStats, rank: int) -> SimulationStats:
        """Per-cell stats for rank ``rank`` from the shared run.

        Only the detection tally differs between cells.  Probe cells
        additionally get their transport counters (zero on the shared
        stats: probe units never flush).
        """
        tally = self._tally[rank]
        changes: Dict[str, Any] = {
            f.name: getattr(tally, f.name) for f in dataclasses.fields(tally)
        }
        changes["phase_time"] = dict(shared.phase_time)
        changes["engine_counters"] = dict(shared.engine_counters)
        unit = self._units.get(rank)
        if isinstance(unit, _BatchProbeCell):
            changes.update(unit.transport.counters())
        return dataclasses.replace(shared, **changes)

    def describe(self) -> str:
        cells = ", ".join(
            f"{cell.mechanism}:{cell.threshold}" for cell in self.cells
        )
        return f"batch[{cells}]"


class BatchSimulator:
    """One shared trajectory serving many detector cells.

    Args:
        config: any cell's config (its own detector cell is superseded
            by ``cells``); must satisfy :func:`batch_eligible`.
        cells: per-cell detector configs — mixed mechanisms, any order;
            a duplicate is simulated as a cell of its own.

    Results align with the given cell sequence.
    """

    #: Constant: there is one movement phase.  The name stays because the
    #: frozen benchmark (benchmarks/spine) reads it.
    vectorized = False

    def __init__(
        self, config: SimulationConfig, cells: Sequence[DetectorConfig]
    ) -> None:
        if not batch_eligible(config):
            raise ValueError(
                "config is not batch-shareable: needs recovery='none', no "
                "fault schedule and an engine other than the 'scan' reference"
            )
        self.cells: List[DetectorConfig] = list(cells)
        self.observer = BatchObserver(self.cells)
        # The injected observer supersedes the config's own detector cell.
        self.sim = Simulator(config.replace(engine="batch"), detector=self.observer)

    def run(self) -> List[SimulationStats]:
        """Advance the shared trajectory; return stats aligned with the
        constructor's cell sequence."""
        shared = self.sim.run()
        observer = self.observer
        return [observer.fold_cell(shared, rank) for rank in observer.ranks]


def plan_batches(
    configs: Sequence[SimulationConfig],
) -> Tuple[List[List[int]], List[int]]:
    """Group config indices into shareable batches (plus leftovers).

    Returns ``(groups, singles)`` of indices into ``configs``: each
    group holds all of the >= 2 :func:`batch_eligible` configs that are
    equal modulo their detector cell, however many cells that is: one
    traffic point, one shared trajectory.  Everything else — unshareable
    configs, lone group members — lands in ``singles``.  The choice is
    read off the cells; no caller asks for it.
    Order within groups and singles follows the input, so
    planning is deterministic — and because fold results are
    bit-identical to per-cell runs regardless of which cells share a
    trajectory, any partition (e.g. a ``--resume`` regrouping after a
    partial run) produces identical per-cell outcomes.
    """
    singles: List[int] = []
    by_key: Dict[str, List[int]] = {}
    for i, config in enumerate(configs):
        if batch_eligible(config):
            by_key.setdefault(batch_group_key(config), []).append(i)
        else:
            singles.append(i)
    groups: List[List[int]] = []
    for key in sorted(by_key):
        members = by_key[key]
        if len(members) < 2:
            singles.extend(members)
        else:
            groups.append(members)
    singles.sort()
    return groups, singles
