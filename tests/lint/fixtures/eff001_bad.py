"""Offending: phase methods and detector hooks writing outside their contract.

The generation phase may only touch message lifecycle state, and the
injection phase adds park/occupancy/worm — neither may reach routing
bookkeeping or detection counters (see PHASE_EFFECTS in
repro/network/kernel.py).  The second violation is indirect: the phase stays clean
syntactically but calls a helper that performs the write, which the
call-graph propagation must surface at the helper's line.

The same holds for detector hooks (HOOK_CONTRACTS in
repro/lint/contracts.py): ``on_blocked_attempt`` may maintain G/P flags
and the wake surface, so an observer that *records* a detection by
marking the message or restarting a channel counter — through a helper —
is reported on the helper's write lines.
"""

from repro.core.detector import DeadlockDetector


class LeakySimulator:
    def _generation_phase(self, cycle):
        for m in self.pending:
            m.status = "active"
            m.blocked_since = cycle  # expect: EFF001

    def _injection_phase(self, cycle):
        self._bump(self.head)

    def _bump(self, m):
        m.times_detected += 1  # expect: EFF001


class LeakyObserver(DeadlockDetector):
    name = "leaky-observer"
    can_sleep_blocked = False

    def on_blocked_attempt(self, sim, message, cycle):
        message.input_pc.gp = "P"
        self._record(message, cycle)
        return False

    def _record(self, message, cycle):
        message.marked_deadlocked = True  # expect: EFF001
        message.input_pc.last_flit_cycle = cycle  # expect: EFF001
