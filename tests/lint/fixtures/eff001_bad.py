"""Offending: phase methods writing outside their declared contract.

The generation phase may only touch message lifecycle state, and the
injection phase adds park/occupancy/worm — neither may reach routing
bookkeeping or detection counters (see PHASE_EFFECTS in
repro/network/kernel.py).  The second violation is indirect: the phase stays clean
syntactically but calls a helper that performs the write, which the
call-graph propagation must surface at the helper's line.
"""


class LeakySimulator:
    def _generation_phase(self, cycle):
        for m in self.pending:
            m.status = "active"
            m.blocked_since = cycle  # expect: EFF001

    def _injection_phase(self, cycle):
        self._bump(self.head)

    def _bump(self, m):
        m.times_detected += 1  # expect: EFF001
