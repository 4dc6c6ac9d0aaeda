"""Declared effect contracts for cycle phases and detector hooks.

The *effect domain* — the behavioural attribute names of Message /
VirtualChannel / PhysicalChannel / Router that both engines must
agree on — is declared in :mod:`repro.network.kernel`
(``EFFECT_GROUPS`` / ``PHASE_EFFECTS``), next to the phase order the
contracts describe.  This module re-exports those tables
and adds the pieces that belong to the lint layer:

* per-hook contracts for the :class:`~repro.core.detector.DeadlockDetector`
  surface (which effect groups each hook may write, and whether it is
  expected to wake parked work);
* *role* contracts for calls the analyzer cannot resolve statically but
  whose receiver attribute names a well-known collaborator
  (``self.detector.…``, ``self.recovery.recover``, a hoisted
  ``on_i_reset`` hook);
* the wake-significance classifier: which writes can unblock a parked
  waiter (VC release, counter restart, P->G promotion, fault-edge heal)
  and therefore carry an EFF002 wake obligation, and the lane bookkeeping
  whose obligation the network discharges at its call sites.

Everything here is *data*; the dataflow engine lives in
:mod:`repro.lint.effects` and the rules in :mod:`repro.lint.rules_effects`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.network.kernel import (  # noqa: F401 - re-exported contract tables
    EFFECT_GROUPS,
    PHASE_EFFECTS,
    PHASE_METHODS,
)

#: Every behavioural attribute name the analyzer tracks.  Attribute
#: writes outside this set (stats fields, detector-private state,
#: tracer/telemetry buffers) are invisible to the EFF rules.
DOMAIN: FrozenSet[str] = frozenset().union(*EFFECT_GROUPS.values())

#: The event-engine parking surface (sleep flags + waiter registries).
PARK: FrozenSet[str] = EFFECT_GROUPS["park"]


def _groups(*names: str) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset()
    for name in names:
        out |= EFFECT_GROUPS[name]
    return out


@dataclass(frozen=True)
class RoleContract:
    """Declared effects of a hook or an unresolvable collaborator call.

    ``writes`` is the set of domain attributes the callee may touch;
    ``wakes`` declares whether the callee performs an event-engine wake
    (so a caller's EFF002 obligation is discharged through it).
    """

    name: str
    writes: FrozenSet[str]
    wakes: bool = False


#: DeadlockDetector hook name -> contract.  The routing-side hooks may
#: maintain G/P flags and wake the waiters those flags park; the query
#: hooks (``blocked_deadline`` / ``probe_phase`` / ``periodic_check``)
#: must not write behavioural state at all (their purity beyond the
#: domain is held dynamically: scan == event on a corpus that blocks).
HOOK_CONTRACTS: Dict[str, RoleContract] = {
    "attach": RoleContract("attach", _groups("gp", "counters")),
    "on_blocked_attempt": RoleContract(
        "on_blocked_attempt", _groups("gp", "park"), wakes=True
    ),
    "on_message_routed": RoleContract(
        "on_message_routed", _groups("gp", "park"), wakes=True
    ),
    "on_vc_released": RoleContract(
        "on_vc_released", _groups("gp", "park"), wakes=True
    ),
    "on_message_removed": RoleContract(
        "on_message_removed", _groups("gp", "park")
    ),
    # Re-promotes P flags to G and wakes the header waiters parked on them.
    "on_i_reset": RoleContract("on_i_reset", _groups("gp", "park"), wakes=True),
    "periodic_check": RoleContract("periodic_check", frozenset()),
    "probe_phase": RoleContract("probe_phase", frozenset()),
    "blocked_deadline": RoleContract("blocked_deadline", frozenset()),
}

#: Recovery managers tear worms down: they may write anything except
#: fault state, and free_worm's release path wakes parked waiters.
RECOVER_CONTRACT = RoleContract(
    "recover", DOMAIN - EFFECT_GROUPS["faults"], wakes=True
)

#: Receiver attribute name -> role, for calls the engine cannot resolve
#: to a concrete function.  ``x.detector.hook(...)`` applies the hook
#: contract for ``hook``; ``x.recovery.recover(...)`` the recovery
#: contract; a local alias of ``x.on_i_reset`` the reset-hook contract.
#: Tracer calls are telemetry-only.
ATTR_ROLES: Dict[str, str] = {
    "detector": "hook",
    "recovery": "recover",
    "tracer": "pure",
    "on_i_reset": "on_i_reset",
}


def role_contract(role: str, method: Optional[str]) -> Optional[RoleContract]:
    """Contract applied to a call through a role receiver (or None)."""
    if role == "hook":
        if method is None:
            return None
        return HOOK_CONTRACTS.get(method)
    if role == "recover":
        return RECOVER_CONTRACT if method == "recover" else None
    if role == "on_i_reset":
        return HOOK_CONTRACTS["on_i_reset"]
    if role == "pure":
        return RoleContract("pure", frozenset())
    return None


# ----------------------------------------------------------------------
# Wake-significance (EFF002)
# ----------------------------------------------------------------------
#: Attributes whose write means "a parked message is being woken":
#: clearing a sleep flag is the event engine's wake primitive.
WAKE_WRITE_ATTRS: FrozenSet[str] = frozenset({"route_asleep", "move_asleep"})

#: Lane bookkeeping, blind to the parked waiters the simulator owns -> the
#: simulator method whose wake discharges its obligations (EFF002 checks
#: that the method still reaches both).
DEFERRED_WAKES: Dict[str, str] = {
    "repro.network.channel.VirtualChannel.release": (
        "repro.network.simulator.Simulator._release_vc"
    ),
    "repro.network.channel.PhysicalChannel.note_occupied": (
        "repro.network.simulator.Simulator._allocate"
    ),
}


def classify_wake_obligation(
    attr: str, kind: str, op: Optional[str], value_repr: Optional[str]
) -> Optional[str]:
    """Label for a write that can unblock a parked waiter, else None.

    ``kind`` is the write kind (``assign`` / ``aug`` / ...), ``op`` the
    augmented operator name when ``kind == "aug"``, and ``value_repr``
    the dotted/constant rendering of the assigned value when available.

    The four obligation families mirror the historical divergence bugs:
    VC release (PR 2 drain-termination), counter restart (PR 5
    drain-heal), P->G promotion (PR 3 / PR 7), and fault-edge heal
    (PR 5).  Parking-direction writes (allocation, P-writes, fault
    arming) carry no obligation: they can only make parked work *less*
    runnable.
    """
    if attr == "occupant":
        # Releasing a lane (occupant -> None) frees capacity.
        if kind == "assign" and value_repr == "None":
            return "vc-release"
        return None
    if attr == "free_mask":
        # OR-ing bits in frees lanes; AND-ing bits out allocates them.
        if kind == "aug" and op == "BitOr":
            return "vc-release"
        return None
    if attr == "active_since":
        # Any rewrite restarts/resumes the inactivity counter, which can
        # make a cached detection deadline reachable.
        return "counter-restart"
    if attr == "gp":
        # Only the Propagate -> Generate direction wakes header waiters.
        if value_repr is not None and "GENERATE" in value_repr:
            return "gp-promotion"
        return None
    if attr == "fault_down":
        if kind == "assign" and value_repr == "False":
            return "fault-heal"
        return None
    if attr == "stuck_mask":
        if kind == "aug" and op == "BitAnd":
            return "fault-heal"
        return None
    if attr == "usable_mask":
        # Recomputed masks may widen the usable set (heal direction);
        # the analyzer cannot see which, so every write carries the
        # obligation and the narrowing-only sites take a line waiver.
        return "fault-heal"
    return None
