"""Batch backend: many detector cells of a campaign over one trajectory.

A campaign grid (see ``repro.experiments.spec``) re-runs the *same*
network — topology, workload, seed, windows — once per detector cell.
For every mechanism that is a pure observer of the wait state
(``batch_shareable`` in the registry) combined with ``recovery="none"``,
detection has **zero feedback** into the network:

* ``NoRecovery.recover`` is a no-op, so a detected worm keeps its
  channels exactly like an undetected one;
* G/P flags are read only by the detector — routing and flit movement
  never consult them — so G/P state cannot steer the trajectory;
* probe sessions live in a dedicated out-of-band phase and never touch
  routing or channel state;
* failed routing attempts draw nothing from the RNG.

Hence the *flit-level* trajectory — channel occupancy, inactivity
counters, RNG stream, ground-truth sweeps — is identical for every
cell, across thresholds **and mechanisms**, and so is the oracle's grade
of a detection, which reads only the network at the detection's
instant.  What is *not* identical is
the per-run detector bookkeeping: a reference run skips every detector
call of a marked message, which suppresses that message's later
first-attempt G/P writes and probe-launch armings, and which messages
are marked when differs per cell.  :class:`BatchObserver` therefore
keeps all marking-coupled state per cell:

* the NDM G/P flag per input channel as a K-bit mask (bit r set == cell
  r sees G) in the inherited ``NewDetectionMechanism.gp``, updated under
  the reference's exact suppression rule;
* one pending mask per message (bit r clear == cell r has detected it),
  which gates every family's predicate and every probe cell's cadence;
* per-cell probe launch heaps and transports whose "already marked"
  reads go through the ``_marked`` seam narrowed to the cell's bit.

Detection predicates are evaluated per family over the shared state:
each mechanism class states its rule once as a monotone score (see
``DeadlockDetector.score``), a solo detector compares it with its one
threshold and ``BatchObserver._sweep`` counts the rungs of each
:class:`_Family`'s threshold ladder under it (``bisect_left``); probe
victims come from the per-cell transports.  The source-side families
sweep a message only once its ``deadline`` at its lowest pending rung
has come, off a heap, not every in-flight message per cycle.
:class:`BatchSimulator` advances the network **once** with that observer,
then folds the shared run's statistics into K per-cell
:class:`~repro.metrics.stats.SimulationStats` that are bit-identical to
K independent ``engine="event"`` runs (asserted by
``tests/network/test_batch_engine.py`` over the equivalence corpus and
checked on every run of the ``detgrid-norecovery`` workload of
``benchmarks/spine``).

Cell state is plain integers: per-message and per-channel bitmasks over
the canonical cell order (family order, then ascending threshold, then
probe caps — giving each family a contiguous bit range) and per-cell
counter lists, reduced in that **fixed order**, so results are
independent of ``PYTHONHASHSEED`` and host.  Nothing here needs an
array library: the trajectory is the simulator's own, and the per-wake
reductions are O(feasible channels).
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
from repro.core.ndm import NewDetectionMechanism
from repro.core.probe import ProbeDetection
from repro.metrics.stats import DetectionTally, SimulationStats
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.message import Message
from repro.network.probes import ProbeTransport
from repro.network.simulator import Simulator
from repro.network.types import DetectionEvent, MessageStatus, PortKind

#: Constant: the fold needs no numpy.  The name stays because the frozen
#: benchmark (benchmarks/spine) reads it.
HAVE_NUMPY = True


def detector_cell_key(detector: DetectorConfig) -> Tuple[Any, ...]:
    """Hashable identity of one cell within a batch group.

    Cells equal under this key are behaviourally identical on a shared
    trajectory and fold to one rank: mechanism plus threshold, extended
    with the storm-guard caps for probe cells (the only mechanism with
    extra behavioural knobs; ``t1`` is group-uniform by the group key).
    """
    if detector.mechanism == ProbeDetection.name:
        return (
            detector.mechanism,
            int(detector.threshold),
            int(detector.probe_max_hops),
            int(detector.probe_max_outstanding),
        )
    return (detector.mechanism, int(detector.threshold))


def batch_eligible(config: SimulationConfig) -> bool:
    """True when ``config``'s cell may join a shared trajectory.

    Requires every source of detection feedback to be absent: no
    recovery, a fault-free schedule (fault edges wake parked state
    conservatively, which is sound but makes per-cell telemetry — and
    conformance accounting — threshold-coupled) and a mechanism
    declaring ``batch_shareable`` (every pure observer — ndm with simple
    promotion, pdm, the three timeouts, probe).  ``engine="scan"`` is
    the reference the fold is checked against and is never folded.
    The single-compare tests come first: a paper-table cell (recovery
    on) costs one string compare.
    """
    if config.recovery != "none" or config.engine == "scan" or config.faults:
        return False
    # Imported here: repro.core.registry imports network.config, and a
    # module-level import back into repro.network would be cyclic.
    from repro.core.registry import batch_shareable

    return batch_shareable(config.detector)


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
    and the probe storm-guard caps, and may therefore join one
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
    """One probe cell's launch cadence and transport on the shared run.

    Driven by the owning :class:`BatchObserver`, never by the simulator
    directly: the owner forwards first-attempt armings gated on the
    cell's pending bit (the reference skips marked messages' hooks) and
    records the victims this cell's :meth:`probe_phase` returns.
    Counters stay in the per-cell transport — :meth:`_flush_counters`
    is disabled so the *shared* stats keep their zero defaults, and
    ``BatchObserver.fold_cell`` writes them into the cell's stats.
    """

    def __init__(
        self, rank: int, cell: DetectorConfig, pending: Dict[int, int]
    ) -> None:
        caps = (cell.probe_max_hops, cell.probe_max_outstanding)
        super().__init__(cell.threshold, *caps)
        self.rank = rank
        self.transport = _CellProbeTransport(*caps, pending, rank)

    def _flush_counters(self, sim: Simulator) -> None:
        """No-op: the owner folds transport counters per cell instead."""


class BatchObserver(NewDetectionMechanism):
    """K detector cells — across mechanisms — on one shared trajectory.

    Cells are canonicalized (deduplicated by :func:`detector_cell_key`,
    sorted family-first then ascending threshold) so each mechanism
    family owns a contiguous bit range of the per-message pending masks.
    The NDM G/P flag of each input channel is kept per cell — the
    inherited ``gp`` masks over the ndm family's bits (``gp_all``) —
    because the reference runs disagree on it: once cell r marks a
    message, that run skips the message's later detector calls, so its
    first-attempt G/P writes at subsequent hops never happen *in that
    run*.  So a first-attempt write by message ``m`` lands only in the
    ndm cells still pending on ``m``, while channel-level events
    (routing success, lane release, reactivation promotion) land in all
    cells, through the parent's own hooks.  Every family's detection
    predicate is then tested per pending cell against the shared state,
    and detections are *recorded* per cell instead of marking the
    message: :meth:`on_blocked_attempt` always returns False, so the
    simulator never mutates the shared trajectory on behalf of any cell.
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
        # Imported here to avoid a module-level cycle (see batch_eligible).
        from repro.core.registry import (
            batch_shareable,
            batch_shareable_names,
            detector_class,
        )

        canonical: Dict[Tuple[Any, ...], DetectorConfig] = {}
        for cell in cells:
            if not batch_shareable(cell):
                raise ValueError(
                    f"detector cell {cell.mechanism!r} is not batch-shareable"
                )
            canonical.setdefault(detector_cell_key(cell), cell)
        if not canonical:
            raise ValueError("need at least one detector cell")
        # Canonical rank order: family (registry order — ndm first keeps
        # the G/P masks' bit range anchored at the low bits), ascending
        # threshold, probe caps.  It is the fixed reduction order that
        # makes fold results independent of input ordering and
        # PYTHONHASHSEED.
        family_order = {name: i for i, name in enumerate(batch_shareable_names())}
        ordered = sorted(canonical, key=lambda key: (family_order[key[0]],) + key[1:])
        ndm_name = NewDetectionMechanism.name
        t1s = {
            int(canonical[key].t1) for key in ordered if key[0] == ndm_name
        }
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
            super().__init__(threshold=ordered[0][1], t1=t1s.pop())
        else:
            super().__init__(threshold=2)
        #: Canonical cells, rank order (family, then ascending threshold).
        self.cells: List[DetectorConfig] = [canonical[key] for key in ordered]
        self._rank_by_key: Dict[Tuple[Any, ...], int] = {
            key: rank for rank, key in enumerate(ordered)
        }
        k = len(ordered)
        self._full_mask = (1 << k) - 1
        #: message id -> bitmask of cells that have not yet detected it.
        self._pending: Dict[int, int] = {}
        #: The ladders evaluated on routing attempts and those evaluated
        #: in the checks phase — each a contiguous bit range of the
        #: pending masks; the ndm ladder's range (0 without ndm cells)
        #: is also the range of the G/P masks, ``gp_all``.
        self.gp_all = 0
        self._attempt_families: List[_Family] = []
        self._periodic_families: List[_Family] = []
        #: rank -> per-cell probe unit (rank order), driven from the hooks.
        self._probe_units: Dict[int, _BatchProbeCell] = {}
        for name in family_order:
            cls = detector_class(name)
            ranks = [r for r, key in enumerate(ordered) if key[0] == name]
            if not ranks:
                continue
            if cls is ProbeDetection:
                for rank in ranks:
                    self._probe_units[rank] = _BatchProbeCell(
                        rank, self.cells[rank], self._pending
                    )
                continue
            family = _Family(
                ((1 << len(ranks)) - 1) << ranks[0],
                ranks[0],
                [ordered[r][1] for r in ranks],
                cls.score,
                cls.deadline,
            )
            if cls.needs_periodic_check:
                self._periodic_families.append(family)
            else:
                self._attempt_families.append(family)
            if cls is NewDetectionMechanism:
                self.gp_all = family.mask
        #: (cycle, message id) heap: when an in-flight message can next
        #: fire for a pending periodic cell (see :meth:`_schedule`).
        self._due: List[Tuple[int, int]] = []
        # Instance-level gates: the simulator caches these at build time.
        self.needs_periodic_check = bool(self._periodic_families)
        self.has_probe_phase = bool(self._probe_units)
        #: Per-cell detection counters and event log, rank order.
        self._tally = [DetectionTally() for _ in range(k)]
        # The oracle's input changes between two detections of a cycle
        # only when a header is granted a lane or first blocks; the
        # epoch counts those, so one snapshot grades every detection
        # before the next change (see :meth:`_record`).
        self._truth_epoch = 0
        self._snapshot_key = (-1, -1)
        self._snapshot: Set[Message] = set()

    def rank_of_cell(self, detector: DetectorConfig) -> int:
        """Canonical rank of a cell (raises if absent from the group)."""
        return self._rank_by_key[detector_cell_key(detector)]

    def attach(self, sim: Simulator) -> None:
        if self.gp_all:
            super().attach(sim)  # all-P masks, armed I flags
        else:
            self.gp = [0] * len(sim.channels)

    def on_message_routed(self, message: Message, cycle: int) -> None:
        """The parent's reset to P in every cell (the reference calls this
        hook even for marked messages), plus the fold's bookkeeping."""
        self._truth_epoch += 1
        super().on_message_routed(message, cycle)
        input_pc = message.input_pc
        if input_pc is not None and input_pc.kind is PortKind.INJECTION:
            if not message.first_attempt_done:  # else scheduled when it blocked
                self._schedule(message, cycle)

    # ------------------------------------------------------------------
    # Routing-attempt families (ndm / pdm / header timeout / probe arm)
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
        if first_attempt:
            for unit in self._probe_units.values():
                if pending >> unit.rank & 1:
                    unit.on_blocked_attempt(sim, message, cycle, True)
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
                self._pending[m.id] = pending & ~hit
                self._record(sim, m, cycle, hit)

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Composite deadline: the earliest any pending cell can detect.

        None-aware minimum over the attempt-driven families (ndm
        eligible = pending *and* seeing G; the others just pending).
        Each family's deadline is monotone in t, so its minimum is
        realized by the smallest pending threshold; cells seeing P
        become eligible only through a promotion, which wakes the parked
        header itself.  Periodic cells (source-age, injection-stall)
        detect in the checks phase independent of parking, and probe
        cells detect in the probe phase — their reference cadence
        wakeups are behaviour-free failed attempts (engine counters
        only), so both contribute None here.  Waking at the composite,
        failing the attempt and re-parking walks the chain until every
        cell's exact first-detection cycle has been visited.
        """
        input_pc = message.input_pc
        if input_pc is None:
            return None
        live = self._pending.get(message.id, self._full_mask)
        if self.gp_all:
            live &= ~self.gp_all | self.gp[input_pc.index]
        return self._earliest(self._attempt_families, message, cycle, live)

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
    # Probe family
    # ------------------------------------------------------------------
    def probe_phase(self, sim: Simulator, cycle: int) -> List[Message]:
        """Advance every cell's probes; record victims per cell."""
        in_network = MessageStatus.IN_NETWORK
        for unit in self._probe_units.values():
            for victim in unit.probe_phase(sim, cycle):
                # The reference applies the same screen before handling
                # a probe victim; the pending bit is the per-cell
                # "not yet marked".
                if victim.status is not in_network:
                    continue
                pending = self._pending.get(victim.id, self._full_mask)
                if not (pending >> unit.rank & 1):
                    continue
                self._pending[victim.id] = pending & ~(1 << unit.rank)
                self._record(sim, victim, cycle, 1 << unit.rank)
        return []

    # ------------------------------------------------------------------
    def _record(self, sim: Simulator, message: Message, cycle: int, hit: int) -> None:
        """Tally one detection event per hit cell (ascending ranks).

        A solo run grades its mark against the network at the instant of
        marking.  Under recovery "none" a mark changes nothing the oracle
        reads, so every hit cell shares one grade, and the snapshot is
        taken once per ``(cycle, _truth_epoch)``.
        """
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
        """Per-cell stats for canonical rank ``rank`` from the shared run.

        Only the detection tally differs between cells.  Probe cells
        additionally get their transport counters (zero on the shared
        stats: the per-cell units never flush).
        """
        tally = self._tally[rank]
        changes: Dict[str, Any] = {
            f.name: getattr(tally, f.name) for f in dataclasses.fields(tally)
        }
        changes["phase_time"] = dict(shared.phase_time)
        changes["engine_counters"] = dict(shared.engine_counters)
        unit = self._probe_units.get(rank)
        if unit is not None:
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
        cells: per-cell detector configs — mixed mechanisms, any order,
            duplicates allowed.

    Results align with the given cell sequence (duplicates share the
    folded per-cell stats object).
    """

    #: Constant: there is one movement phase.  The name stays because the
    #: frozen benchmark (benchmarks/spine) reads it.
    vectorized = False

    def __init__(
        self, config: SimulationConfig, cells: Sequence[DetectorConfig]
    ) -> None:
        if not batch_eligible(config):
            raise ValueError(
                "config is not batch-shareable: needs a batch_shareable "
                "detector mechanism, recovery='none', no fault schedule "
                "and an engine other than the 'scan' reference"
            )
        self.cells: List[DetectorConfig] = list(cells)
        self.observer = BatchObserver(self.cells)
        run_config = config.replace(engine="batch")
        # The injected observer supersedes the registry detector; anchor
        # the config's cosmetic cell at the canonical first rank.
        run_config.detector.threshold = self.observer.cells[0].threshold
        self.sim = Simulator(run_config, detector=self.observer)

    def run(self) -> List[SimulationStats]:
        """Advance the shared trajectory; return stats aligned with the
        constructor's cell sequence (duplicates get equal copies)."""
        shared = self.sim.run()
        observer = self.observer
        folded = {
            rank: observer.fold_cell(shared, rank)
            for rank in range(len(observer.cells))
        }
        return [folded[observer.rank_of_cell(cell)] for cell in self.cells]


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
