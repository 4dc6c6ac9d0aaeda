"""Ground-truth deadlock analysis.

The detection mechanisms are *heuristics*; to score them (true vs. false
detections, the tables' ``(*)`` annotations, and the claim that NDM detects
every real deadlock) we need an oracle.  With OR-semantics waiting — a
blocked wormhole header may proceed through *any* of its feasible virtual
channels — a set of blocked messages is truly deadlocked iff it is
irreducible under the standard reduction:

    repeatedly remove a blocked message that has (a) a free feasible
    virtual channel, or (b) a feasible virtual channel held by a message
    not in the remaining set (that holder is advancing or was already
    removed, so its tail will eventually release the channel).

What remains after the fixpoint can never advance no matter how the rest of
the network evolves, which is exactly the resource-deadlock condition used
by Warnakulasuriya & Pinkston's deadlock characterization work.

Non-blocked messages can always make progress in this model: an allocated
output means the header only waits for fair channel multiplexing, and
ejection ports consume flits unconditionally (no protocol deadlock).
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.network.message import Message
from repro.network.types import MessageStatus


def find_deadlocked(messages: Iterable[Message]) -> Set[Message]:
    """Return the set of truly deadlocked messages among ``messages``.

    Only messages whose header is blocked at a router (failed at least one
    routing attempt, no output granted) can participate; everything else is
    treated as able to advance.

    A candidate's alternatives are its recorded ``feasible_vcs`` minus the
    lanes currently unusable — link down or lane stuck, i.e. the bit is
    clear in ``PhysicalChannel.usable_mask``: a free lane on a dead link
    is not an escape, and a message holding one cannot hand it over.  The
    verdict is therefore "deadlocked under the *current* fault state"; a
    later heal may dissolve the set, which the conformance harness
    accounts for by re-sweeping each cycle.
    """
    # The blocked test is inlined (attribute reads instead of a method
    # call per message): this oracle runs on every detection event, so
    # its constant factors are on the simulator's hot path.
    in_network = MessageStatus.IN_NETWORK
    candidates = [
        m
        for m in messages
        if m.first_attempt_done
        and m.allocated_vc is None
        and m.status is in_network
        and m.spans
    ]
    if not candidates:
        return set()

    # The reduction fixpoint is confluent (the irreducible set is unique),
    # but we still reduce in a deterministic order — iterating the stable
    # candidate list, not the hash-ordered set — so intermediate states
    # and work done are identical across PYTHONHASHSEED values.  The
    # escape test is inlined in the pass loop; in the common wedged-network
    # case the fixpoint converges in two passes, so per-call overhead
    # dominates any asymptotically cleverer scheme.  Lanes name their
    # occupants by id (a free lane's ``None`` is in no set of ids).
    deadlocked = {m.id for m in candidates}
    changed = True
    while changed:
        changed = False
        for m in candidates:
            if m.id not in deadlocked:
                continue
            # ``usable_lanes`` inlined (see the note on constant factors).
            for vc in m.feasible_vcs:
                if (vc.pc.usable_mask >> vc.index) & 1 and (
                    vc.occupant not in deadlocked
                ):
                    deadlocked.discard(m.id)
                    changed = True
                    break
    return {m for m in candidates if m.id in deadlocked}

