"""NDM — the paper's new deadlock detection mechanism (Section 3).

Hardware model (paper Fig. 6), mapped onto our lazy channel monitors:

* Per physical **output** channel: one inactivity counter and two derived
  flags — ``I`` (counter > t1, with t1 ≈ 1 cycle) and ``DT`` (counter > t2,
  the tuned detection threshold).  We never materialize the flags: they are
  computed from :meth:`PhysicalChannel.inactivity` on demand.
* Per physical **input** channel: one ``G/P`` (Generate/Propagate) flag,
  kept by the detector that owns it in :attr:`NewDetectionMechanism.gp`,
  indexed by channel index, as a mask of the cells that see ``G`` (a solo
  run is one cell; the batch fold is one cell per ndm threshold).

Protocol, exactly as described in the paper:

1. **First unsuccessful routing attempt** of a message whose header sits at
   input channel ``in``:

   * if ``in`` still has a free virtual channel, the message cannot be the
     last arriver and cannot yet produce deadlock: ``gp[in] = P``;
   * else test the ``I`` flags of all feasible outputs — if *any* is clear
     (someone is still advancing and could be the tree root) set
     ``gp[in] = G``, otherwise (everyone already blocked; the current
     message is not waiting on the root) set ``gp[in] = P``.

2. **Every subsequent unsuccessful attempt**: the message is presumed
   deadlocked iff *all* feasible outputs have ``DT`` set *and*
   ``gp[in] == G``.

3. ``gp[in]`` resets to ``P`` whenever a message occupying ``in`` is
   successfully routed or one of ``in``'s virtual channels is freed.

4. Whenever a flit transmission clears a set ``I`` flag (a previously
   stalled channel advanced: the advancing message becomes the new tree
   root, the paper's Fig. 5 situation), ``P`` flags are promoted to ``G``.
   The paper evaluates the *simple* variant — promote every flag in the
   router — and mentions a more selective promotion as an open question;
   both are implemented (``selective_promotion``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.detector import CounterDetector
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.message import Message
from repro.network.types import PortKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.config import DetectorConfig
    from repro.network.simulator import Simulator


class NewDetectionMechanism(CounterDetector):
    """The paper's contribution: tree-root tracking via G/P flags.

    Args:
        threshold: the ``t2`` detection threshold in cycles.
        t1: the ``I``-flag threshold (the paper uses 1 clock cycle).
        selective_promotion: promote only the inputs actually waiting on a
            reactivated output instead of every flag in the router.
    """

    name = "ndm"

    def __init__(
        self, threshold: int, t1: int = 1, selective_promotion: bool = False
    ) -> None:
        super().__init__(threshold)
        if t1 < 1:
            raise ValueError(f"t1 must be >= 1 cycle, got {t1}")
        if t1 >= threshold:
            raise ValueError(
                f"t1 ({t1}) must be well below t2 ({threshold}); the paper "
                "requires t1 << t2"
            )
        self.t1 = t1
        self.selective_promotion = selective_promotion
        #: Input channel index -> the cells seeing G there, as a bit mask
        #: (sized all-P by :meth:`attach`).  A solo run is one cell.
        self.gp: List[int] = []
        #: Every cell this detector keeps G/P for.
        self.gp_all = 1
        #: Output channel index -> the input channel indices its
        #: reactivation promotes (armed by :meth:`attach`): the owning
        #: router's inputs, or under selective promotion the inputs whose
        #: blocked headers request the channel, refcounted.
        self.reset_targets: List[Any] = []

    @classmethod
    def from_config(cls, config: DetectorConfig) -> "NewDetectionMechanism":
        """Forward the config's ``t1`` and promotion variant."""
        return cls(
            config.threshold,
            t1=config.t1,
            selective_promotion=config.selective_promotion,
        )

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Set every G/P flag to P and arm every router-output channel's
        I flag."""
        # The paper's simple variant promotes a fixed set — every input
        # of the owning router, resolved once here because the hook fires
        # on every flit that clears a set I flag; the selective variant
        # promotes the channel's refcounted waiters.
        self.gp = [0] * len(sim.channels)
        router_inputs = [
            tuple(pc.index for pc in r.header_input_pcs()) for r in sim.routers
        ]
        targets: List[Any] = [()] * len(sim.channels)
        t1, selective = self.t1, self.selective_promotion
        injection = PortKind.INJECTION
        for pc in sim.channels:
            if pc.kind is not injection:
                # Output side of some router: arm the I-flag reset hook.
                pc.i_threshold = t1
                targets[pc.index] = {} if selective else router_inputs[pc.src_node]
        self.reset_targets = targets

    # ------------------------------------------------------------------
    # Routing-attempt protocol
    # ------------------------------------------------------------------
    def on_blocked_attempt(
        self, sim: "Simulator", message: Message, cycle: int, first_attempt: bool
    ) -> bool:
        """Apply the first-attempt G/P rule or the G + all-DT detection."""
        input_pc = message.input_pc
        if input_pc is None:  # pragma: no cover - headers always hold a VC here
            return False
        if first_attempt:
            self._first_attempt(sim, message, input_pc, cycle)
            return False
        if not self.gp[input_pc.index]:
            return False
        return self.score(message, cycle) > self.threshold  # every DT flag set

    def first_attempt_generates(
        self, message: Message, input_pc: PhysicalChannel, cycle: int
    ) -> bool:
        """The first-attempt rule: G iff the message is the input channel's
        last arriver (no lane still free) and some requested output has its
        I flag clear — a message advancing there may be the tree's root.
        Otherwise every requested channel is held by an already-blocked
        message and the current one is not waiting on the root."""
        return (
            input_pc.occupied_count >= input_pc.num_vcs
            and not self.score(message, cycle) > self.t1
        )

    def _first_attempt(
        self,
        sim: "Simulator",
        message: Message,
        input_pc: PhysicalChannel,
        cycle: int,
        cells: int = 1,
    ) -> None:
        """Apply the first-attempt rule in ``cells``: the cells whose run
        makes this call (a run that has marked the message skips it)."""
        i = input_pc.index
        if self.selective_promotion:
            self._register_waiter(message, i)
        if self.first_attempt_generates(message, input_pc, cycle):
            self._promote(sim, i, cells)
        else:
            self.gp[i] &= ~cells

    def blocked_deadline(self, message: Message, cycle: int) -> Optional[int]:
        """Earliest cycle the G + all-DT predicate can first hold.

        With ``gp == P`` detection is impossible until a promotion (which
        wakes the parked header); with ``gp == G`` it needs every feasible
        output's inactivity to exceed t2, so the binding constraint is the
        *latest* per-channel crossing.  A channel frozen at or below t2
        pushes the deadline to "never" — its counter resumes only on a
        re-occupation, which is itself a wakeup event.
        """
        input_pc = message.input_pc
        if input_pc is None or not self.gp[input_pc.index]:
            return None
        return self.deadline(message, cycle, self.threshold)

    # ------------------------------------------------------------------
    # G/P resets and promotions
    # ------------------------------------------------------------------
    def on_message_routed(self, message: Message, cycle: int) -> None:
        """Routing success at an input channel resets its flag to P."""
        input_pc = message.input_pc
        if input_pc is not None:
            self.gp[input_pc.index] = 0
        if self.selective_promotion:
            self._unregister_waiter(message)

    def on_vc_released(self, vc: VirtualChannel, cycle: int) -> None:
        """Freeing any lane of an input channel resets its flag to P."""
        self.gp[vc.pc.index] = 0

    def on_message_removed(self, message: Message, cycle: int) -> None:
        """Recovery teardown: drop the worm's waiter registrations."""
        if self.selective_promotion:
            self._unregister_waiter(message)

    def on_i_reset(self, sim: "Simulator", pc: PhysicalChannel, cycle: int) -> None:
        """A stalled output channel advanced again: relabel tree roots.

        Changes the P flags of the inputs this output reactivates to G,
        in every cell.  The already-G check is inlined: the hook fires on
        every flit that clears a set I flag, and most inputs are already
        G by then.
        """
        gp, full = self.gp, self.gp_all
        for i in self.reset_targets[pc.index]:
            if gp[i] != full:
                self._promote(sim, i, full)

    def _promote(self, sim: "Simulator", i: int, cells: int) -> None:
        """Set input channel ``i``'s flag to G in ``cells``, waking its
        parked headers if some cell goes P -> G (their detection
        predicate may now hold)."""
        gp = self.gp
        if cells & ~gp[i]:
            gp[i] |= cells
            waiters = sim.channels[i].header_waiters
            if waiters:
                sim.wake(waiters)

    # ------------------------------------------------------------------
    # Selective-promotion bookkeeping
    # ------------------------------------------------------------------
    def _register_waiter(self, message: Message, i: int) -> None:
        for pc in message.feasible_pcs:
            waiters = self.reset_targets[pc.index]
            waiters[i] = waiters.get(i, 0) + 1

    def _unregister_waiter(self, message: Message) -> None:
        if not message.first_attempt_done:
            return  # never registered (routed on the first try)
        input_pc = message.input_pc
        if input_pc is None:
            return
        i = input_pc.index
        for pc in message.feasible_pcs:
            waiters = self.reset_targets[pc.index]
            count = waiters.get(i, 0)
            if count <= 1:
                waiters.pop(i, None)
            else:
                waiters[i] = count - 1

    def describe(self) -> str:
        """Short human-readable form including the promotion variant."""
        variant = "selective" if self.selective_promotion else "simple"
        return f"ndm(t1={self.t1}, t2={self.threshold}, promotion={variant})"
