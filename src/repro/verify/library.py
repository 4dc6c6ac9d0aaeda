"""The verification scenario grid: small configurations worth exhausting.

Every scenario here is small enough for :func:`repro.verify.checker.explore`
to enumerate to fixpoint, and each one targets a specific slice of the
paper's claims:

* the fault-free rings and the line exercise the normal G/P life cycle
  (first attempt, reset on routing, reset on release);
* the permanent link-down wedge tests whether each mechanism *eventually*
  flags a fault-induced deadlock — the honest known split: counter-based
  mechanisms (ndm, pdm) watch channel inactivity counters that a dead,
  unoccupied channel never advances, so they provably never fire, while
  the blocked-header timeout and the probe's dead-end self-detection do;
* the transient window checks that wedges which heal do not trip the
  liveness check (the bad-state subgraph must stay acyclic);
* the vc-stuck / counter-lag schedules drive the fault-state encodings
  (stuck masks, negative raw counters) through the quotient;
* ``ring2-promotion`` ports the selective-promotion scenario family of
  the paper's Figures 3/4 onto an exhaustively checkable 2-node config:
  a transient mid-transfer stall forces the I-flag set/reset path, so
  every promotion in the state space crosses the audited rule sites;
* ``ring4-cross`` is the true routing-deadlock scenario: opposite
  nodes on a 4-ring, both directions minimal, so the adversary can close
  a cyclic hold-wait chain with no faults at all.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.verify.scenario import (
    PERMANENT,
    MessageSpec,
    VerifyCase,
    VerifyScenario,
)

#: Mechanisms every scenario is checked under (the NDM twice: once per
#: promotion variant).  ``(mechanism, selective_promotion)`` pairs.
MECHANISM_GRID: Tuple[Tuple[str, bool], ...] = (
    ("ndm", False),
    ("ndm", True),
    ("pdm", False),
    ("timeout", False),
    ("probe", False),
)


def _link_down(channel: int, start: int, end: int) -> Dict[str, Any]:
    return {"kind": "link-down", "start": start, "end": end, "channel": channel}


def ring2_basic() -> VerifyScenario:
    """Two nodes exchanging one message each; the minimal full life cycle."""
    return VerifyScenario(
        name="ring2-basic",
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=1),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
    )


def ring2_pair() -> VerifyScenario:
    """Two messages from one source share a single link and ejection port."""
    return VerifyScenario(
        name="ring2-pair",
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=2),
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=2),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
    )


def ring3_basic() -> VerifyScenario:
    """Three-node ring, each node forwarding one hop clockwise."""
    return VerifyScenario(
        name="ring3-basic",
        radix=3,
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=1),
            MessageSpec(source=1, dest=2, length=2, earliest=0, latest=1),
            MessageSpec(source=2, dest=0, length=2, earliest=0, latest=1),
        ),
    )


def line3_basic() -> VerifyScenario:
    """Three-node line (mesh): two-hop worms holding a middle channel."""
    return VerifyScenario(
        name="line3-basic",
        topology="mesh",
        radix=3,
        messages=(
            MessageSpec(source=0, dest=2, length=2, earliest=0, latest=1),
            MessageSpec(source=2, dest=0, length=2, earliest=0, latest=1),
        ),
    )


def ring2_linkdown() -> VerifyScenario:
    """Permanent link-down wedge: message 0 can never reach node 1.

    Channel 0 is the only 0-to-1 link on the 2-ring, so message 0 is
    oracle-deadlocked (fault-aware) as soon as its first routing attempt
    fails, and stays so forever.  The 0-FN liveness check then asks: does
    the mechanism under test *eventually* mark it?
    """
    return VerifyScenario(
        name="ring2-linkdown",
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=0),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
        faults=(_link_down(channel=0, start=0, end=PERMANENT),),
        fault_class="link-down-permanent",
    )


def ring2_linkdown_transient() -> VerifyScenario:
    """A healing link-down window: the wedge must dissolve, not refute."""
    return VerifyScenario(
        name="ring2-linkdown-transient",
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=1),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
        faults=(_link_down(channel=0, start=1, end=4),),
        fault_class="link-down-transient",
    )


def ring2_vcstuck() -> VerifyScenario:
    """One stuck lane out of two: progress continues on the survivor."""
    return VerifyScenario(
        name="ring2-vcstuck",
        vcs_per_channel=2,
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=1),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
        faults=(
            {
                "kind": "vc-stuck",
                "start": 0,
                "end": PERMANENT,
                "channel": 0,
                "lane": 0,
            },
        ),
        fault_class="vc-stuck",
    )


def ring2_counterlag() -> VerifyScenario:
    """A lagged inactivity counter: threshold crossings move later."""
    return VerifyScenario(
        name="ring2-counterlag",
        messages=(
            MessageSpec(source=0, dest=1, length=2, earliest=0, latest=1),
            MessageSpec(source=1, dest=0, length=2, earliest=0, latest=1),
        ),
        faults=(
            {
                "kind": "counter-lag",
                "start": 1,
                "end": 2,
                "channel": 0,
                "lag": 2,
            },
        ),
        fault_class="counter-lag",
    )


def ring2_promotion() -> VerifyScenario:
    """Figures 3/4 selective-promotion family on a 2-node config.

    A three-flit worm is mid-transfer over channel 0 when the link drops
    for three cycles: the channel goes inactive while occupied, the
    I-flag sets (raw inactivity crosses t1), and on heal the resuming
    flit triggers the I-reset promotion path — under both the simple
    hook (reset every G channel of the router) and the selective waiter
    maps.  The opposing message keeps the other channel's G/P flags in
    play at the same time.
    """
    return VerifyScenario(
        name="ring2-promotion",
        messages=(
            MessageSpec(source=0, dest=1, length=3, earliest=0, latest=0),
            MessageSpec(source=1, dest=0, length=3, earliest=0, latest=1),
        ),
        faults=(_link_down(channel=0, start=2, end=5),),
        fault_class="promotion",
    )


def ring4_cross() -> VerifyScenario:
    """True routing deadlock: opposite pairs on a 4-ring.

    Every source/destination pair is at distance exactly ``k/2 = 2``, so
    fully-adaptive minimal routing allows *both* directions at injection
    and the adversary can steer all four worms clockwise — a cyclic
    hold-wait chain with no faults involved.
    """
    return VerifyScenario(
        name="ring4-cross",
        radix=4,
        messages=tuple(
            MessageSpec(
                source=i, dest=(i + 2) % 4, length=2, earliest=0, latest=0
            )
            for i in range(4)
        ),
    )


def scenarios() -> Tuple[VerifyScenario, ...]:
    """The sweep grid."""
    return (
        ring2_basic(),
        ring2_pair(),
        ring3_basic(),
        line3_basic(),
        ring2_linkdown(),
        ring2_linkdown_transient(),
        ring2_vcstuck(),
        ring2_counterlag(),
        ring2_promotion(),
        ring4_cross(),
    )


def cases_for(scenario: VerifyScenario) -> Tuple[VerifyCase, ...]:
    """Detector cells checked for one scenario.

    The promotion scenario targets the NDM rule sites specifically, so it
    only runs the two NDM variants; every other scenario runs the full
    mechanism grid.
    """
    grid = MECHANISM_GRID
    if scenario.fault_class == "promotion":
        grid = tuple(cell for cell in grid if cell[0] == "ndm")
    return tuple(
        VerifyCase(
            scenario=scenario,
            mechanism=mechanism,
            selective_promotion=selective,
            threshold=3,
            t1=1,
            probe_max_hops=8,
            probe_max_outstanding=4,
        )
        for mechanism, selective in grid
    )


def all_cases() -> Tuple[VerifyCase, ...]:
    return tuple(case for sc in scenarios() for case in cases_for(sc))


def refutation_selftest_case() -> VerifyCase:
    """A case that *must* refute: the null detector on a permanent wedge.

    Keeps the sweep honest — if the liveness machinery ever stops finding
    this false negative, the proofs elsewhere are vacuous.
    """
    return VerifyCase(scenario=ring2_linkdown(), mechanism="none")

