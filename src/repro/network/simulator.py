"""The flit-level wormhole network simulator.

Synchronous cycle model.  Each cycle runs, in order:

0. fault-schedule edges (optional; see ``repro.faults``) — link windows
   open/close, lanes stick/unstick, counters freeze or lag — applied
   before any phase reads channel state, followed by a conservative wake
   of all parked event-engine state;
1. periodic ground-truth deadlock sweep (optional);
2. source-side detector checks (timeout mechanisms only);
3. **routing**: every pending header (newly arrived or blocked) attempts to
   acquire an output virtual channel; failed attempts feed the detection
   mechanism, which may mark the message and trigger recovery (a mark is
   graded by the ground-truth oracle against the network at that instant,
   after any earlier mark's recovery);
4. **movement**: one flit per physical channel per cycle advances, worms
   chain-advance front-to-back, tails release channels, deliveries finish;
5. **injection**: queued messages grab free injection-port VCs, subject to
   the injection limitation mechanism (recovery re-injections are exempt
   and prioritized);
6. **generation**: Bernoulli traffic sources enqueue new messages.

Timing matches the paper's model in the quantities that drive detection:
routing retried every cycle for blocked headers, one flit per cycle per
physical channel (virtual channels time-multiplexed), channel inactivity
measured from the last flit transmission.

``SimulationConfig.engine`` names how this one phase sequence is
executed (the effect contracts the phases are held to are declared in
:mod:`repro.network.kernel`):

* ``"scan"`` — the reference that tests, the conformance harness and
  the verifier run beside the default: every blocked header re-attempts
  routing and every worm is visited by the movement scan, each cycle.
* ``"event"`` (default) — the event-driven fast path: a blocked header
  whose failed attempt cannot change outcome is *parked* and skipped by
  the scans until a provable wakeup event — a lane freeing or an
  inactivity counter resuming on a feasible channel, a G/P promotion on
  its input channel, or its detector-computed detection deadline
  (re-derived lazily when a flit crossing a feasible channel pushes it
  out); worms with no structurally movable flit likewise park until
  routing grants their header a channel.

Both keep the same message lists in the same rotated order
and consume the same RNG stream — failed routing attempts draw nothing —
so runs are *bit-identical*: same stats, same traces, same detection
cycles (asserted by ``tests/network/test_engine_equivalence.py``).  The
event engine merely skips work whose outcome is provably unchanged,
which is most of the per-cycle work at and beyond saturation where the
paper's tables are measured.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.deadlock import find_deadlocked
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.metrics.stats import SimulationStats
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.config import SimulationConfig
from repro.network.kernel import PHASE_METHODS
from repro.network.message import Message, usable_lanes
from repro.network.router import Router
from repro.network.routing import make_routing_function
from repro.network.topology import shared_wiring
from repro.network.types import DetectionEvent, MessageStatus, NodeId, PortKind
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.detector import DeadlockDetector
    from repro.network.tracing import Tracer


class Simulator:
    """One simulation instance built from a :class:`SimulationConfig`.

    Args:
        config: the fully resolved run description (validated here).
        detector: optional pre-built detection mechanism to use instead
            of the registry-built one — the batch backend injects a
            composite observer that evaluates many thresholds against
            one shared trajectory (see :mod:`repro.network.batch`).
            The injected detector must be side-effect-free on the
            network trajectory wherever the registry detector would be.
    """

    def __init__(
        self,
        config: SimulationConfig,
        detector: Optional["DeadlockDetector"] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.topology = config.build_topology()
        self.rng = random.Random(config.seed)
        self.routing_fn = make_routing_function(config.routing)
        # Hoisted off the per-attempt hot path (constant per run).
        self._vc_class_routing = self.routing_fn.uses_vc_classes
        self._lowest_dimension_only = self.routing_fn.lowest_dimension_only
        self._coords_of = self.topology.coords
        self.workload = Workload(config.traffic, self.topology)

        # The network owns flat lists of its channels and lanes and maps
        # its in-flight messages by id, the name lanes and channels use
        # for them: no reference cycle, so refcounting frees a network.
        self.routers: List[Router] = []
        self.channels: List[PhysicalChannel] = []
        self.lanes: List[VirtualChannel] = []
        self.messages: Dict[int, Message] = {}
        self._build_network()

        # Fault injection (see repro.faults): compiled once, applied at
        # the top of every cycle.  ``_faults_on`` gates the (cheap) fault
        # tests on the movement path, so healthy runs keep their exact
        # pre-fault hot path.
        self._faults_on = bool(config.faults)
        self._fault_injector: Optional[FaultInjector] = None
        if config.faults:
            specs = [FaultSpec.from_dict(d) for d in config.faults]
            self._fault_injector = FaultInjector(self, specs)

        # Imported here, not at module level: repro.core detectors type-hint
        # against network classes, so a module-level import would be cyclic.
        from repro.core.recovery import make_recovery
        from repro.core.registry import make_detector

        self.detector = (
            detector if detector is not None else make_detector(config.detector)
        )
        self.detector.attach(self)
        self.recovery = make_recovery(config.recovery)

        self.stats = SimulationStats(
            warmup_cycles=config.warmup_cycles,
            measure_cycles=config.measure_cycles,
            num_nodes=self.topology.num_nodes,
            engine=config.engine,
        )
        self._phase_time = self.stats.phase_time
        for name in PHASE_METHODS.values():
            self._phase_time[name] = 0.0

        # Per-phase wall-clock timing is opt-in: the perf_counter calls
        # per cycle are measurable on the hot path (docs/performance.md,
        # *Per-phase wall timing*), so step() skips them unless profiling.
        self._profile = config.profile_phases
        # Event engine state.  Parking is only sound when the detector has
        # no per-attempt side effects on blocked messages.
        self._park_enabled = config.engine != "scan"
        self._detector_can_sleep = self.detector.can_sleep_blocked
        #: The cycle, as step() executes it: (phase name, function called
        #: as ``phase(self, cycle)`` — a bound method would point back at
        #: the simulator) in the canonical order of ``PHASE_METHODS``.
        #: Probe-family detectors get a dedicated out-of-band phase between
        #: checks and routing; for every other detector the entry is left
        #: out and step() never pays for the extra call.
        self._phases: List[Tuple[str, Callable[["Simulator", int], None]]] = [
            (name, getattr(type(self), method))
            for method, name in PHASE_METHODS.items()
            if name != "probes" or self.detector.has_probe_phase
        ]
        #: (deadline_cycle, seq, message) heap of sleeping headers whose
        #: detector predicate can first become true at deadline_cycle.
        self._route_deadlines: List[Tuple[int, int, Message]] = []
        self._deadline_seq = 0
        # Work counters (flushed to stats.engine_counters by run()).
        self._n_route_attempts = 0
        self._n_route_skips = 0
        self._n_route_parks = 0
        self._n_move_visits = 0
        self._n_move_skips = 0
        self._n_move_parks = 0
        self._n_deadline_wakeups = 0

        self.cycle = 0
        self.measuring = False
        self._input_limit = config.crossbar_input_limit
        #: Optional structured event recorder (see repro.network.tracing);
        #: assign a Tracer instance to enable, None keeps the hot path free.
        self.tracer: Optional[Tracer] = None
        self.generation_enabled = True
        self._next_message_id = 0
        # Plain lists in visit order: each routing and movement phase
        # visits its list rotated by ``cycle % len`` and keeps that order
        # (minus the messages it drops) for the next cycle.
        self.active_messages: List[Message] = []
        self.pending_route: List[Message] = []
        self.source_queues: List[Deque[Message]] = [
            deque() for _ in range(self.topology.num_nodes)
        ]
        self.recovery_queues: Dict[NodeId, Deque[Message]] = {}
        self.injection_limits: List[Optional[int]] = [
            config.injection_limit(r.total_network_vcs()) for r in self.routers
        ]
        self._ever_deadlocked: Set[int] = set()
        # (ready_cycle, seq, message) heap of recovery-lane deliveries.
        self._recovery_deliveries: List[Tuple[int, int, Message]] = []
        self._recovery_seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        """Wire the network from its shape's cached links and rows: network
        channels node by node, then each node's injection and ejection ports."""
        cfg = self.config
        vcs, depth = cfg.vcs_per_channel, cfg.buffer_depth
        channels, lanes = self.channels, self.lanes
        # Enum members read once: each lookup costs ~0.1 µs per channel.
        network, injection, ejection = PortKind.NETWORK, PortKind.INJECTION, PortKind.EJECTION
        links, dimension_rows = shared_wiring(self.topology, cfg.routing)
        self.routers = routers = [Router(n) for n in range(len(links))]
        for router, node_links in zip(routers, links):
            node, outs = router.node, router.output_pcs
            for direction, neighbor in node_links:
                pc = PhysicalChannel(
                    len(channels), network, node, neighbor, direction, vcs, depth, lanes
                )
                channels.append(pc)
                outs[direction] = pc
                routers[neighbor].input_pcs.append(pc)
            router.output_pc_list = list(outs.values())
            # ``route_rows[dim][dst]``: each distinct direction tuple of a row
            # mapped to this node's channels once, then picked per destination.
            out_of = outs.__getitem__
            rows = []
            for by_cur, c in zip(dimension_rows, self._coords_of(node)):
                distinct, picks = by_cur[c]
                mapped = [tuple(map(out_of, dirs)) for dirs in distinct]
                rows.append(tuple(map(mapped.__getitem__, picks)))
            router.route_rows = tuple(rows)
        for node, router in enumerate(routers):
            for _ in range(cfg.injection_ports):
                pc = PhysicalChannel(len(channels), injection, None, node, None, vcs, depth, lanes)
                channels.append(pc)
                router.injection_pcs.append(pc)
            for _ in range(cfg.ejection_ports):
                pc = PhysicalChannel(len(channels), ejection, node, None, None, vcs, depth, lanes)
                channels.append(pc)
                router.ejection_pcs.append(pc)
            router.ejection_row = tuple(router.ejection_pcs)

    # ------------------------------------------------------------------
    # Top-level control
    # ------------------------------------------------------------------
    def run(
        self, on_cycle: Optional[Callable[[int], None]] = None
    ) -> SimulationStats:
        """Run warmup + measurement (+ optional drain); return statistics.

        ``on_cycle``, if given, is called after every completed cycle with
        the cycle index just simulated — the conformance harness uses it
        to sweep the ground-truth oracle per cycle without duplicating
        this drive loop.  Passing ``None`` costs nothing.
        """
        cfg = self.config
        total = cfg.warmup_cycles + cfg.measure_cycles
        while self.cycle < total:
            self.step()
            if on_cycle is not None:
                on_cycle(self.cycle - 1)
        if cfg.drain_cycles > 0:
            self.generation_enabled = False
            self.measuring = False
            deadline = self.cycle + cfg.drain_cycles
            # In-flight traffic also lives in the recovery-lane delivery
            # heap and the recovery re-injection queues; stopping while
            # either is non-empty would silently drop those messages.
            while self.cycle < deadline and (
                self.active_messages
                or self._recovery_deliveries
                or self.recovery_queues
                or any(self.source_queues)
            ):
                self.step()
                if on_cycle is not None:
                    on_cycle(self.cycle - 1)
        self.stats.cycles_run = self.cycle
        self.flush_engine_counters()
        return self.stats

    def flush_engine_counters(self) -> None:
        """Copy the engine work counters into ``stats.engine_counters``.

        ``run()`` calls this automatically; call it manually after driving
        the simulator via :meth:`step` if you want the telemetry.
        """
        c = self.stats.engine_counters
        c["route_attempts"] = self._n_route_attempts
        c["route_parked_skips"] = self._n_route_skips
        c["route_parks"] = self._n_route_parks
        c["move_visits"] = self._n_move_visits
        c["move_parked_skips"] = self._n_move_skips
        c["move_parks"] = self._n_move_parks
        c["deadline_wakeups"] = self._n_deadline_wakeups

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        cfg = self.config
        if cycle == cfg.warmup_cycles:
            self.measuring = True
        if cycle == cfg.warmup_cycles + cfg.measure_cycles:
            self.measuring = False

        # Fault edges land before any phase reads channel state, so a
        # window boundary affects the whole cycle on both engines alike.
        injector = self._fault_injector
        if injector is not None:
            injector.apply(self, cycle)

        if self._profile:
            phase_time = self._phase_time
            start = perf_counter()
            for name, phase in self._phases:
                phase(self, cycle)
                end = perf_counter()
                phase_time[name] += end - start
                start = end
        else:
            for _, phase in self._phases:
                phase(self, cycle)
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # Phases 1-2: ground truth, recovery-lane completions, source checks
    # ------------------------------------------------------------------
    def _checks_phase(self, cycle: int) -> None:
        interval = self.config.ground_truth_interval
        if interval and cycle and cycle % interval == 0:
            self._truth_sweep()

        if self._recovery_deliveries:
            self._complete_recovery_deliveries(cycle)

        if self.detector.needs_periodic_check:
            for m in self.detector.periodic_check(self, cycle):
                if m.status is MessageStatus.IN_NETWORK and not m.marked_deadlocked:
                    self._handle_detection(m, cycle)

    # ------------------------------------------------------------------
    # Phase 2b: out-of-band probe transport (probe-family detectors only)
    # ------------------------------------------------------------------
    def _probes_phase(self, cycle: int) -> None:
        """Advance the detector's probe transport by one out-of-band hop.

        Runs after checks and before routing so probes observe the same
        wait-graph snapshot the oracle graded at the previous cycle's end,
        identically under both engines (parked headers keep their cached
        feasible sets, which is all the transport reads).  Victims elected
        by returning probes enter the normal recovery path exactly like
        periodic-check detections.
        """
        for victim in self.detector.probe_phase(self, cycle):
            if (
                victim.status is MessageStatus.IN_NETWORK
                and not victim.marked_deadlocked
            ):
                self._handle_detection(victim, cycle)

    # ------------------------------------------------------------------
    # Phase 3: routing
    # ------------------------------------------------------------------
    def _routing_phase(self, cycle: int) -> None:
        deadlines = self._route_deadlines
        while deadlines and deadlines[0][0] <= cycle:
            m = heapq.heappop(deadlines)[2]
            if m.route_asleep:
                m.route_asleep = False
                self._n_deadline_wakeups += 1
        items = self.pending_route
        n = len(items)
        if not n:
            return
        start = cycle % n
        if start:
            order = items[start:]
            order += items[:start]
        else:
            order = items
        survivors: Optional[List[Message]] = None
        sappend: Optional[Callable[[Message], None]] = None
        n_attempts = 0
        n_skips = 0
        in_network = MessageStatus.IN_NETWORK
        for pos, m in enumerate(order):
            if m.status is not in_network:
                # Recovered/removed since it was queued: drop it, as the
                # reference rebuild would.  Everything visited before the
                # first drop survived — backfill once, then append.
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
                continue
            if m.route_asleep:
                # Parked: the attempt would fail without side effects, so
                # skip it.  The message stays at the same position in the
                # visit order, keeping the rotation (and therefore the
                # RNG stream) identical to the reference scan engine.
                n_skips += 1
                if sappend is not None:
                    sappend(m)
                continue
            n_attempts += 1
            if self._attempt_route(m, cycle) or m.status is not in_network:
                if survivors is None:
                    survivors = order[:pos]
                    sappend = survivors.append
            elif sappend is not None:
                sappend(m)
        # Nothing dropped: the visit order itself is the next cycle's
        # order — adopt it wholesale, no per-message rebuild.
        self.pending_route = order if survivors is None else survivors
        self._n_route_attempts += n_attempts
        self._n_route_skips += n_skips

    def _park_blocked(self, m: Message, cycle: int) -> None:
        """Put a freshly failed header to sleep until a wakeup event.

        Sound because (a) a failed attempt proves no allowed VC is free,
        and any later free lane wakes ``pc.route_waiters`` in
        :meth:`_release_vc`; (b) the detector predicate can only first
        hold at ``blocked_deadline`` — earlier only if an inactivity
        counter restarts (the :meth:`_allocate` wake) or the input channel
        is promoted to G (``header_waiters`` wake), each of which re-parks
        with a recomputed deadline on the next failed attempt.
        """
        if not m.wait_registered:
            # By id, in insertion-ordered dicts, not sets: wake order must
            # not depend on PYTHONHASHSEED or the interpreter's set layout.
            m.wait_registered = True
            for pc in m.feasible_pcs:
                waiters = pc.route_waiters
                if waiters is None:
                    waiters = pc.route_waiters = {}
                waiters[m.id] = None
            ipc = m.input_pc
            if ipc is not None:
                waiters = ipc.header_waiters
                if waiters is None:
                    waiters = ipc.header_waiters = {}
                waiters[m.id] = None
        if m.marked_deadlocked:
            # Already detected (recovery "none"): only a VC release matters.
            m.route_asleep = True
            self._n_route_parks += 1
            return
        deadline = self.detector.blocked_deadline(m, cycle)
        if deadline is None:
            m.route_asleep = True
        elif deadline > cycle:
            m.route_asleep = True
            self._deadline_seq += 1
            heapq.heappush(
                self._route_deadlines, (deadline, self._deadline_seq, m)
            )
        else:
            return  # inconsistent deadline; stay awake (reference behaviour)
        self._n_route_parks += 1

    def wake_all_parked(self) -> None:
        """Clear every park flag (fault edges invalidate parking proofs).

        Called by the fault injector whenever a fault appears or heals: a
        healed link can make a parked header's attempt succeed and let a
        wedged worm drain, and no channel-level wake event fires for
        either, so everything re-evaluates on the next scan.  Purely
        conservative — a spurious wake re-attempts, fails without side
        effects, and re-parks — so both engines stay bit-identical.
        Waiter registrations and queued heap deadlines stay in place
        (stale heap entries are skipped when they pop).
        """
        for m in self.active_messages:
            m.route_asleep = False
            m.move_asleep = False

    def wake(self, waiters: Dict[int, None]) -> None:
        """Clear the routing park of every message in a channel's waiters."""
        messages = self.messages
        for message_id in waiters:
            messages[message_id].route_asleep = False

    def _unregister_parked(self, m: Message) -> None:
        """Drop ``m`` from all waiter maps (before feasible_pcs is cleared)."""
        m.wait_registered = False
        for pc in m.feasible_pcs:
            (pc.route_waiters or {}).pop(m.id, None)
        ipc = m.input_pc
        if ipc is not None:
            (ipc.header_waiters or {}).pop(m.id, None)

    def _attempt_route(self, m: Message, cycle: int) -> bool:
        """Try to allocate an output VC for ``m``'s header; True on success."""
        node = m.header_router()
        router = self.routers[node]
        if m.first_attempt_done:
            candidates = m.feasible_pcs
        elif m.dest == node:
            candidates = router.ejection_row
        else:
            # The router's own rows, ascending by dimension: the order
            # ``routing_fn.candidates`` lists, so ``rng.choice`` draws alike.
            candidates = ()
            lowest_only = self._lowest_dimension_only
            for row, c in zip(router.route_rows, self._coords_of(m.dest)):
                candidates += row[c]
                if lowest_only and candidates:
                    break

        vc: Optional[VirtualChannel] = None
        if self._vc_class_routing:
            if m.first_attempt_done:
                allowed = m.feasible_vcs
            else:
                allowed = tuple(
                    vc
                    for pc in candidates
                    for vc in self.routing_fn.allowed_vcs(
                        self.topology, pc, pc.vcs(self.lanes), node, m.dest
                    )
                )
            free = [vc for vc in usable_lanes(allowed) if vc.occupant is None]
            if free:
                vc = free[0] if len(free) == 1 else self.rng.choice(free)
        elif len(candidates) == 1:
            # Free lane indices come from the incremental per-channel mask
            # (ANDed with ``usable_mask``, all-ones on healthy channels)
            # through the shared table, so no rescan of the lanes per
            # attempt.  ``rng.choice`` reads only a sequence's length and
            # one position, so drawing over the indices — or, below, over
            # ``range(total)`` — picks the lane a draw over the
            # concatenated free lanes would.
            pc = candidates[0]
            indices = pc.lanes_by_mask[pc.free_mask & pc.usable_mask]
            if indices:
                k = indices[0] if len(indices) == 1 else self.rng.choice(indices)
                vc = self.lanes[pc.lane0 + k]
        else:
            total = 0
            for pc in candidates:
                total += len(pc.lanes_by_mask[pc.free_mask & pc.usable_mask])
            if total:
                k = 0 if total == 1 else self.rng.choice(range(total))
                for pc in candidates:
                    indices = pc.lanes_by_mask[pc.free_mask & pc.usable_mask]
                    if k < len(indices):
                        vc = self.lanes[pc.lane0 + indices[k]]
                        break
                    k -= len(indices)
        if vc is not None:
            self._allocate(vc, m, cycle)
            if vc.pc.kind is PortKind.NETWORK:
                router.note_network_vc_allocated()
            m.allocated_vc = vc
            self.detector.on_message_routed(m, cycle)
            if m.wait_registered:
                self._unregister_parked(m)
            m.reset_routing_state()
            if self.tracer is not None:
                self.tracer.record(("route", cycle, m.id, node, vc.pc.index))
            return True

        first = not m.first_attempt_done
        if first:
            m.first_attempt_done = True
            m.blocked_since = cycle
            m.feasible_pcs = candidates
            # The wait relation, recorded once per block: every reader
            # iterates this tuple instead of re-deriving it per query.
            if not self._vc_class_routing:
                allowed = tuple([vc for pc in candidates for vc in pc.vcs(self.lanes)])
            m.feasible_vcs = allowed
            if self.tracer is not None:
                self.tracer.record(("block", cycle, m.id, node))
        if not m.marked_deadlocked and self.detector.on_blocked_attempt(
            self, m, cycle, first
        ):
            self._handle_detection(m, cycle)
        elif self._park_enabled and (
            self._detector_can_sleep or m.marked_deadlocked
        ):
            self._park_blocked(m, cycle)
        return False

    # ------------------------------------------------------------------
    # Phase 4: movement
    # ------------------------------------------------------------------
    def _movement_phase(self, cycle: int) -> None:
        """Visit every awake worm once: header, body, source, tail, delivery.

        A worm that ends its visit *frozen* — nothing moved, no output VC
        is granted, and every stalled flit is stopped by a full downstream
        buffer (or a full first span, for source flits) rather than by a
        transient per-cycle bandwidth guard — cannot advance at any future
        cycle until routing grants its header a channel, so the event
        engine parks it (equivalent to :meth:`_worm_immovable`, which the
        invariant checker uses as the independent specification).
        """
        items = self.active_messages
        n = len(items)
        if not n:
            return
        start = cycle % n
        if start:
            order = items[start:]
            order += items[:start]
        else:
            order = items
        park = self._park_enabled
        n_skips = 0
        n_gone = 0  # recovered/removed since the last visit
        delivered = False
        in_network = MessageStatus.IN_NETWORK
        ejection = PortKind.EJECTION
        input_limit = self._input_limit
        # Fault guards are gated on one bool so healthy runs skip them.
        # A fault-blocked flit is *not* structural blockage: ``frozen``
        # stays False so the worm is never parked over a fault and simply
        # retries until the window closes (fault edges also wake all
        # parked state, so pre-existing parks cannot strand a worm).
        faults = self._faults_on
        prev_cycle = cycle - 1
        release_vc = self._release_vc
        hook = self.detector.on_i_reset
        messages = self.messages
        for m in order:
            if m.status is not in_network:
                m.in_active = False
                del messages[m.id]
                n_gone += 1
                continue
            if m.move_asleep:
                # Structurally frozen worm: stays at the same position in
                # the visit order, woken by a routing grant.
                n_skips += 1
                continue
            frozen = True
            spans = m.spans
            # -- header into its granted output VC ----------------------
            avc = m.allocated_vc
            if avc is not None:
                frozen = False  # granted channel: advances now or next cycle
                tpc = avc.pc
                if faults and (
                    not (tpc.usable_mask >> avc.index) & 1
                    or (
                        spans
                        and (spans[-1].pc.stuck_mask >> spans[-1].index) & 1
                    )
                ):
                    pass  # granted lane dark or header's buffer stuck: hold
                elif tpc.last_flit_cycle != cycle and not (
                    input_limit and spans and spans[-1].pc.last_drain_cycle == cycle
                ):
                    if spans:
                        head = spans[-1]
                        head.flits -= 1
                        if input_limit:
                            head.pc.last_drain_cycle = cycle
                    else:
                        m.flits_at_source -= 1
                        m.last_source_flit_cycle = cycle
                        if m.inject_cycle is None:
                            m.inject_cycle = cycle
                            if self.tracer is not None:
                                self.tracer.record(
                                    ("inject", cycle, m.id, m.inject_node)
                                )
                            if not m.ever_injected:
                                m.ever_injected = True
                                self.stats.injected += 1
                                if self.measuring:
                                    self.stats.injected_measured += 1
                    tpc.record_flit(cycle, self)
                    spans.append(avc)
                    m.allocated_vc = None
                    if tpc.kind is ejection:
                        m.flits_delivered += 1
                    else:
                        avc.flits += 1
                        # Header buffered at the next router: needs routing.
                        self.pending_route.append(m)

            # -- body flits, front (header side) to back (tail side) ----
            # The structural test (full downstream buffer; an ejection
            # lane never buffers, so it is never full) runs before the
            # per-cycle bandwidth guards: all are pure reads, so the
            # movement outcome is unchanged, and a pair stopped only by a
            # transient guard is recognized as movable-later (not frozen).
            if len(spans) > 1:
                pairs = reversed(spans)
                down = next(pairs)
                for up in pairs:
                    if up.flits and down.flits < down.capacity:
                        frozen = False
                        dpc = down.pc
                        last = dpc.last_flit_cycle
                        if faults and (
                            not (dpc.usable_mask >> down.index) & 1
                            or (up.pc.stuck_mask >> up.index) & 1
                        ):
                            pass  # link down or a stuck lane on the hop
                        elif last != cycle and not (
                            input_limit and up.pc.last_drain_cycle == cycle
                        ):
                            up.flits -= 1
                            if input_limit:
                                up.pc.last_drain_cycle = cycle
                            # PhysicalChannel.record_flit, inlined: this
                            # is the hottest flit-accounting site (every
                            # body-flit hop).  A flit crossed last cycle
                            # means inactivity <= 1 <= t1: no I flag set.
                            if last != prev_cycle:
                                t1 = dpc.i_threshold
                                if t1 is not None and dpc.occupied_count > 0:
                                    if dpc.active_since > last:
                                        last = dpc.active_since
                                    if cycle - last - dpc.counter_lag > t1:
                                        hook(self, dpc, cycle)
                            dpc.last_flit_cycle = cycle
                            dpc.counter_lag = 0
                            if dpc.kind is ejection:
                                m.flits_delivered += 1
                            else:
                                down.flits += 1
                    down = up

            if m.flits_at_source:
                # -- source flits into the injection VC -----------------
                if spans:
                    first = spans[0]
                    if first.flits < first.capacity:
                        frozen = False
                        fpc = first.pc
                        if faults and not (fpc.usable_mask >> first.index) & 1:
                            pass  # injection span faulted: source flits hold
                        elif fpc.last_flit_cycle != cycle:
                            m.flits_at_source -= 1
                            m.last_source_flit_cycle = cycle
                            fpc.record_flit(cycle, self)
                            first.flits += 1
            else:
                # -- tail release, then delivery ------------------------
                # Both need the source drained (``flits_delivered ==
                # length`` implies it), which is false for every worm
                # still injecting: one test skips both on that path.
                while len(spans) > 1 and spans[0].flits == 0:
                    release_vc(spans.pop(0), cycle)
                    frozen = False
                if m.flits_delivered == m.length:
                    for vc in spans:
                        release_vc(vc, cycle)
                    spans.clear()
                    self._finish_delivery(m, cycle)
                    m.in_active = False
                    del messages[m.id]
                    delivered = True
                    continue
            if park and frozen and spans:
                m.move_asleep = True
                self._n_move_parks += 1
        if n_gone or delivered:
            # Only a worm's own visit ends its IN_NETWORK status here, so
            # the survivors, in visit order, are those still in flight.
            order = [m for m in order if m.status is in_network]
        self.active_messages = order
        self._n_move_visits += n - n_skips - n_gone
        self._n_move_skips += n_skips

    @staticmethod
    def _worm_immovable(m: Message) -> bool:
        """True if no flit of ``m`` can advance at any future cycle until
        its header is granted an output VC.

        Checks only *structural* conditions (full downstream buffers, no
        ejection sink, source flits against a full first span); per-cycle
        bandwidth guards are transient and deliberately ignored, so this
        is conservative: False never parks a movable worm.
        """
        spans = m.spans
        if not spans:
            return False
        for i in range(len(spans) - 1, 0, -1):
            if spans[i - 1].flits == 0:
                continue
            down = spans[i]
            if down.pc.kind is PortKind.EJECTION or down.flits < down.capacity:
                return False
        if m.flits_at_source > 0 and spans[0].flits < spans[0].capacity:
            return False
        return True

    def _finish_delivery(self, m: Message, cycle: int) -> None:
        m.status = MessageStatus.DELIVERED
        m.deliver_cycle = cycle
        if self.tracer is not None:
            self.tracer.record(("deliver", cycle, m.id, m.dest))
        st = self.stats
        st.delivered += 1
        st.flits_delivered += m.length
        if self.measuring:
            st.delivered_measured += 1
            st.flits_delivered_measured += m.length
            if m.counted:
                latency = cycle - m.gen_cycle
                st.latency_sum += latency
                if m.inject_cycle is not None:
                    st.network_latency_sum += cycle - m.inject_cycle
                st.latency_count += 1
                if latency > st.max_latency:
                    st.max_latency = latency

    # ------------------------------------------------------------------
    # Phase 5: injection
    # ------------------------------------------------------------------
    def _injection_phase(self, cycle: int) -> None:
        # Recovery re-injections first: priority and exempt from limitation.
        if self.recovery_queues:
            done = []
            for node, queue in self.recovery_queues.items():
                router = self.routers[node]
                while queue:
                    vc = router.free_injection_vc(self.lanes)
                    if vc is None:
                        break
                    self._start_injection(queue.popleft(), vc, cycle)
                if not queue:
                    done.append(node)
            for node in done:
                del self.recovery_queues[node]

        # Ascending node id.  A node injects only into its own router's
        # injection lanes under a limit read from that router alone, so the
        # order decides no contention here; it only fixes the order in which
        # this cycle's new worms join ``active_messages``, whose visit order
        # the routing and movement phases rotate every cycle.
        routers = self.routers
        limits = self.injection_limits
        for node, queue in enumerate(self.source_queues):
            if not queue:
                continue
            router = routers[node]
            limit = limits[node]
            while queue:
                if limit is not None and router.busy_network_vcs > limit:
                    break
                vc = router.free_injection_vc(self.lanes)
                if vc is None:
                    break
                self._start_injection(queue.popleft(), vc, cycle)

    def _start_injection(self, m: Message, vc: VirtualChannel, cycle: int) -> None:
        self._allocate(vc, m, cycle)
        m.allocated_vc = vc
        m.status = MessageStatus.IN_NETWORK
        if not m.in_active:
            m.in_active = True
            self.active_messages.append(m)
            self.messages[m.id] = m

    # ------------------------------------------------------------------
    # Phase 6: generation
    # ------------------------------------------------------------------
    def _generation_phase(self, cycle: int) -> None:
        p = self.workload.generation_probability
        if p <= 0.0 or not self.generation_enabled:
            return
        # Per-node Bernoulli draws from the single seeded ``random.Random``
        # stream, drawn in node order *before* any destination/length
        # draws.  Deliberately backend-free: a (config, seed) pair must
        # produce the same run on every host (see
        # tests/network/test_determinism.py), so no numpy fast path here.
        num = self.topology.num_nodes
        rng_random = self.rng.random
        sources = [n for n in range(num) if rng_random() < p]
        for source in sources:
            self._generate_at(source, cycle)

    def _generate_at(self, source: NodeId, cycle: int) -> None:
        draw = self.workload.pattern.destination(source, self.rng)
        if draw is None:
            return
        limit = self.config.source_queue_limit
        queue = self.source_queues[source]
        if limit and len(queue) >= limit:
            self.stats.source_queue_drops += 1
            return
        length = self.workload.lengths.draw(self.rng)
        m = Message(self._next_message_id, source, draw, length, cycle)
        self._next_message_id += 1
        m.counted = self.measuring
        self.stats.generated += 1
        if self.measuring:
            self.stats.generated_measured += 1
        queue.append(m)

    # ------------------------------------------------------------------
    # Detection & recovery plumbing
    # ------------------------------------------------------------------
    def _handle_detection(self, m: Message, cycle: int) -> None:
        """Mark ``m``, grade the mark against the network as it is now,
        and hand ``m`` to recovery."""
        truly: Optional[bool] = None
        if self.config.ground_truth_on_detection:
            truly = m in find_deadlocked(self.active_messages)
        node = m.header_router()
        event = DetectionEvent(
            cycle=cycle,
            message_id=m.id,
            node=node if node is not None else m.inject_node,
            mechanism=self.detector.name,
            truly_deadlocked=truly,
        )
        self.stats.record_detection(event, self.measuring, m.times_detected == 0)
        m.times_detected += 1
        m.marked_deadlocked = True
        if self.tracer is not None:
            self.tracer.record(
                ("detect", cycle, m.id, event.node, self.detector.name)
            )
        self.recovery.recover(self, m, cycle)

    def free_worm(self, m: Message, cycle: int) -> None:
        """Release every channel the worm holds (recovery teardown)."""
        if self.tracer is not None:
            node = m.header_router()
            self.tracer.record(
                ("recover", cycle, m.id, node if node is not None else -1)
            )
        self.detector.on_message_removed(m, cycle)
        if m.wait_registered:
            # Before releasing: the releases below would "wake" the dying
            # worm, and reset_for_reinjection clears feasible_pcs.
            self._unregister_parked(m)
        m.route_asleep = False
        m.move_asleep = False
        vcs = list(m.spans)
        if m.allocated_vc is not None:
            vcs.append(m.allocated_vc)
            m.allocated_vc = None
        m.spans = []
        for vc in vcs:
            self._release_vc(vc, cycle)

    def _allocate(self, vc: VirtualChannel, m: Message, cycle: int) -> None:
        """Grant ``vc`` to ``m``'s worm."""
        vc.allocate(m.id, cycle)
        waiters = vc.pc.route_waiters
        if waiters and vc.pc.occupied_count == 1:
            # The counter resumed: a parked waiter's deadline may be reachable.
            self.wake(waiters)

    def _release_vc(self, vc: VirtualChannel, cycle: int) -> None:
        pc = vc.pc
        vc.release(cycle)
        # A freed lane may let a parked header route on its next attempt.
        waiters = pc.route_waiters
        if waiters:
            self.wake(waiters)
        if pc.kind is PortKind.NETWORK:
            self.routers[pc.src_node].note_network_vc_released()
        self.detector.on_vc_released(vc, cycle)

    def schedule_recovery_delivery(self, m: Message, ready_cycle: int) -> None:
        """Deliver ``m`` through the out-of-band recovery lane at a cycle.

        The worm's channels must already be freed; the message sits in
        node-local software buffers until the lane finishes transferring it.
        """
        m.status = MessageStatus.RECOVERING
        self._recovery_seq += 1
        heapq.heappush(
            self._recovery_deliveries, (ready_cycle, self._recovery_seq, m)
        )

    def _complete_recovery_deliveries(self, cycle: int) -> None:
        heap = self._recovery_deliveries
        while heap and heap[0][0] <= cycle:
            _, _, m = heapq.heappop(heap)
            m.flits_at_source = 0
            m.flits_delivered = m.length
            self._finish_delivery(m, cycle)

    def enqueue_recovery(self, m: Message, node: NodeId) -> None:
        """Queue a progressive-recovery re-injection at ``node``."""
        queue = self.recovery_queues.get(node)
        if queue is None:
            queue = deque()
            self.recovery_queues[node] = queue
        queue.append(m)

    def enqueue_source(self, m: Message, node: NodeId) -> None:
        """Queue a message at the back of a node's normal source queue."""
        self.source_queues[node].append(m)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def _truth_sweep(self) -> None:
        deadlocked = find_deadlocked(self.active_messages)
        st = self.stats
        st.truth_sweeps += 1
        if deadlocked:
            st.truth_sweeps_with_deadlock += 1
            if len(deadlocked) > st.max_deadlock_set_size:
                st.max_deadlock_set_size = len(deadlocked)
            # Order-insensitive: only ids are unioned into a set.
            for m in deadlocked:
                self._ever_deadlocked.add(m.id)
            st.truly_deadlocked_messages = len(self._ever_deadlocked)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples)
    # ------------------------------------------------------------------
    def message_count_in_network(self) -> int:
        """Number of messages currently holding network resources."""
        return sum(
            1
            for m in self.active_messages
            if m.status is MessageStatus.IN_NETWORK
        )

    def check_invariants(self) -> None:
        """Verify global conservation invariants; raise on violation."""
        for m in self.active_messages:
            if m.status is MessageStatus.IN_NETWORK:
                m.check_conservation()
                self._check_parked_state(m)
        if {m.id for m in self.active_messages} != set(self.messages):
            raise AssertionError("in-flight message map != active messages")
        lanes = self.lanes
        for router in self.routers:
            busy = sum(
                1
                for pc in router.output_pc_list
                for vc in pc.vcs(lanes)
                if vc.occupant is not None
            )
            if busy != router.busy_network_vcs:
                raise AssertionError(
                    f"router {router.node}: busy VC count {router.busy_network_vcs} "
                    f"!= actual {busy}"
                )
        for pc in self.channels:
            vcs = pc.vcs(lanes)
            occupied = sum(1 for vc in vcs if vc.occupant is not None)
            if occupied != pc.occupied_count:
                raise AssertionError(
                    f"{pc}: occupied_count {pc.occupied_count} != actual {occupied}"
                )
            actual_free = tuple(vc for vc in vcs if vc.occupant is None)
            if actual_free != pc.free_lanes(lanes):
                # Order matters too: routing draws rng.choice over these
                # lanes, so a permuted free_lanes silently changes runs.
                raise AssertionError(
                    f"{pc}: free_lanes {pc.free_lanes(lanes)} != actual free "
                    f"{actual_free} (stale free_mask or misordered table)"
                )
            full = (1 << pc.num_vcs) - 1
            expected_usable = 0 if pc.fault_down else full & ~pc.stuck_mask
            if pc.usable_mask != expected_usable:
                raise AssertionError(
                    f"{pc}: usable_mask {pc.usable_mask:#x} inconsistent "
                    f"with fault_down={pc.fault_down} "
                    f"stuck_mask={pc.stuck_mask:#x}"
                )
            if pc.counter_lag < 0:
                raise AssertionError(f"{pc}: negative counter_lag")
            # What the movement loop takes for granted: a sink is never
            # full, and a flit one cycle after another clears no I flag.
            if pc.kind is PortKind.EJECTION and any(vc.flits for vc in vcs):
                raise AssertionError(f"{pc}: an ejection lane buffers flits")
            if pc.i_threshold is not None and pc.i_threshold < 1:
                raise AssertionError(f"{pc}: armed with i_threshold < 1")

    def _check_parked_state(self, m: Message) -> None:
        """Event-engine safety: a parked message must have no way forward.

        A violation means a wakeup event was lost and the fast path could
        diverge from the reference scan (stranding the message).
        """
        if m.route_asleep:
            if not m.wait_registered:
                raise AssertionError(
                    f"message {m.id}: route_asleep but not in any waiter set"
                )
            free = [
                vc for vc in usable_lanes(m.feasible_vcs) if vc.occupant is None
            ]
            if free:
                raise AssertionError(
                    f"message {m.id}: route_asleep with free allowed VC {free[0]}"
                )
        if m.move_asleep:
            if m.allocated_vc is not None:
                raise AssertionError(
                    f"message {m.id}: move_asleep despite a granted output VC"
                )
            if not self._worm_immovable(m):
                raise AssertionError(
                    f"message {m.id}: move_asleep but a flit could advance"
                )
