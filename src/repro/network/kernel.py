"""The cycle contract: phase order and per-phase effect tables.

One cycle is the fixed phase sequence checks, probes, routing, movement,
injection, generation: :meth:`Simulator.step` loops over
``PHASE_METHODS`` below (clocking each phase when
``config.profile_phases`` is set) for every ``config.engine`` value.
The engines do not differ in sequencing: ``"scan"`` leaves the
simulator's park flags off and re-scans every message every cycle (the
reference) while ``"event"`` parks blocked headers and frozen worms
until a provable wakeup event.

What lives here is the declared contract over that sequence: the
behavioural effect domain, which part of it each phase, detector hook
and recovery scheme may write.  ``tests/network/test_effect_contracts.py``
holds the simulator to it while a corpus runs: every domain store and
every in-place change of a domain list or dict is checked against the
contracts of the phases and hooks executing at that moment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet


# ----------------------------------------------------------------------
# Effect contracts (checked at run time by the tier-1 contract test)
# ----------------------------------------------------------------------
# The effect *domain* is the behavioural state shared by both
# engines: every attribute of Message / VirtualChannel / PhysicalChannel
# / Router that feeds the trajectory or the behavioural digest, and the
# NDM's G/P masks and reset targets, which it keeps by channel index.  The
# groups below partition it; each phase, hook and recovery scheme
# declares which groups it may write, and a write made while it runs
# must fall inside its contract and every enclosing one.  Domain values
# are integral (a float would make digests host-dependent).  Telemetry
# (stats, tracers, perf counters) is deliberately outside the domain —
# writing it is always allowed.
EFFECT_GROUPS: Dict[str, FrozenSet[str]] = {
    # Event-engine parking surface: sleep flags and waiter registries.
    "park": frozenset(
        {
            "route_asleep",
            "move_asleep",
            "wait_registered",
            "route_waiters",
            "header_waiters",
        }
    ),
    # The NDM's Generate/Propagate cell masks (one int per input channel
    # index; the batch fold's per-cell bits included) and the reset
    # targets (selective promotion's waiter refcounts) that drive them.
    "gp": frozenset({"gp", "reset_targets"}),
    # Channel occupancy: lane ownership, buffered flits, free-lane masks
    # and the inactivity-monitor activation state derived from them.
    "occupancy": frozenset(
        {
            "occupant",
            "flits",
            "free_mask",
            "occupied_count",
            "active_since",
            "_frozen_inactivity",
            "busy_network_vcs",
        }
    ),
    # The paper's per-channel counters and the I-flag threshold a
    # detector arms them with.
    "counters": frozenset(
        {
            "last_flit_cycle",
            "last_drain_cycle",
            "counter_lag",
            "i_threshold",
        }
    ),
    # Worm extent: the span list and source/delivery flit accounting.
    "worm": frozenset(
        {
            "spans",
            "allocated_vc",
            "flits_at_source",
            "flits_delivered",
            "last_source_flit_cycle",
        }
    ),
    # Per-message routing bookkeeping between attempts.
    "routing_state": frozenset(
        {
            "first_attempt_done",
            "blocked_since",
            "feasible_pcs",
            "feasible_vcs",
        }
    ),
    # Message lifecycle: status transitions and the flags the stats
    # fold reads.
    "lifecycle": frozenset(
        {
            "status",
            "inject_cycle",
            "deliver_cycle",
            "inject_node",
            "in_active",
            "ever_injected",
            "counted",
        }
    ),
    # Detection/recovery outcomes recorded on the message.
    "detection": frozenset(
        {
            "marked_deadlocked",
            "times_detected",
            "recoveries",
            "retries",
        }
    ),
    # Fault-injection state: written only by repro.faults.injector,
    # never by a cycle phase.
    "faults": frozenset({"fault_down", "stuck_mask", "usable_mask"}),
}


def _effects(*groups: str) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset()
    for group in groups:
        out |= EFFECT_GROUPS[group]
    return out


#: Simulator phase-method name -> phase name, in canonical order.  This
#: table *is* the cycle: :meth:`Simulator.step` executes it.
PHASE_METHODS: Dict[str, str] = {
    "_checks_phase": "checks",
    "_probes_phase": "probes",
    "_routing_phase": "routing",
    "_movement_phase": "movement",
    "_injection_phase": "injection",
    "_generation_phase": "generation",
}

#: Phase name -> attributes the phase (transitively) may write.  The
#: checks/probes/routing phases can reach detection and therefore the
#: full recovery path (worm teardown touches nearly everything), so
#: their contract is the whole domain minus fault state; the later
#: phases are meaningfully narrower.  Fault state is writable by *no*
#: phase: the injector mutates it in ``step()`` before the phases run.
PHASE_EFFECTS: Dict[str, FrozenSet[str]] = {
    "checks": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "probes": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "routing": _effects(
        "park", "gp", "occupancy", "counters", "worm",
        "routing_state", "lifecycle", "detection",
    ),
    "movement": _effects(
        "park", "gp", "occupancy", "counters", "worm", "lifecycle",
    ),
    "injection": _effects("park", "occupancy", "worm", "lifecycle"),
    "generation": _effects("lifecycle"),
}

#: DeadlockDetector hook name -> attributes the hook may write.  The
#: routing-side hooks maintain G/P flags and wake the waiters those
#: flags park; ``attach`` arms the flags and the I-flag thresholds; the
#: query hooks (``blocked_deadline`` / ``probe_phase`` /
#: ``periodic_check``) must not write behavioural state at all.
HOOK_CONTRACTS: Dict[str, FrozenSet[str]] = {
    "attach": _effects("gp", "counters"),
    "on_blocked_attempt": _effects("gp", "park"),
    "on_message_routed": _effects("gp", "park"),
    "on_vc_released": _effects("gp", "park"),
    "on_message_removed": _effects("gp", "park"),
    "on_i_reset": _effects("gp", "park"),
    "periodic_check": frozenset(),
    "probe_phase": frozenset(),
    "blocked_deadline": frozenset(),
}

#: Recovery schemes tear worms down: ``recover`` may write anything
#: except fault state.
RECOVER_CONTRACT: FrozenSet[str] = _effects(
    "park", "gp", "occupancy", "counters", "worm",
    "routing_state", "lifecycle", "detection",
)
