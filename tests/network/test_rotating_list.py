"""Unit tests for the O(1)-rotation message list.

The contract under test: :class:`RotatingList`'s *conceptual* order
(``items[rot:] + items[:rot] + tail``) must track, operation for
operation, the plain list the reference scan engine maintains with
``lst[offset:] + lst[:offset]`` slice rotations.  The simulator's phase
loops drive the structure through exactly three moves — fold staged
appends, advance the cursor on an all-parked cycle, or visit in rotated
order and adopt the survivors — so the tests exercise those moves both
in isolation and through a randomized cycle-protocol simulation checked
against the plain-list model every cycle.

The structure is content-agnostic (it never touches message attributes),
so the tests use plain integers as stand-in messages.
"""

from __future__ import annotations

import random

from repro.network.rotating import RotatingList


def make(items, rot=0, tail=()):
    rl = RotatingList()
    rl.items = list(items)
    rl.rot = rot
    rl.tail = list(tail)
    return rl


# ----------------------------------------------------------------------
# Conceptual-order views
# ----------------------------------------------------------------------
def test_empty():
    rl = RotatingList()
    assert len(rl) == 0
    assert not rl
    assert list(rl) == []
    assert rl.to_list() == []


def test_iteration_follows_conceptual_order():
    rl = make([0, 1, 2, 3, 4], rot=2, tail=[5, 6])
    expected = [2, 3, 4, 0, 1, 5, 6]
    assert rl.to_list() == expected
    assert list(rl) == expected
    assert len(rl) == 7
    assert bool(rl)


def test_append_stages_into_tail():
    rl = make([0, 1, 2], rot=1)
    rl.append(3)
    rl.append(4)
    # Physical items untouched; conceptual end extended.
    assert rl.items == [0, 1, 2]
    assert rl.tail == [3, 4]
    assert rl.to_list() == [1, 2, 0, 3, 4]


# ----------------------------------------------------------------------
# fold
# ----------------------------------------------------------------------
def test_fold_with_zero_cursor_extends_in_place():
    rl = make([0, 1, 2], rot=0, tail=[3, 4])
    items_before = rl.items
    rl.fold()
    assert rl.items is items_before  # in-place extend, no reallocation
    assert rl.items == [0, 1, 2, 3, 4]
    assert rl.rot == 0 and rl.tail == []


def test_fold_with_displaced_cursor_splices_conceptual_order():
    rl = make([0, 1, 2, 3], rot=3, tail=[4])
    conceptual = rl.to_list()
    rl.fold()
    assert rl.items == conceptual == [3, 0, 1, 2, 4]
    assert rl.rot == 0 and rl.tail == []
    assert rl.to_list() == conceptual


def test_fold_is_idempotent_on_folded_list():
    rl = make([0, 1, 2])
    rl.fold()
    assert rl.items == [0, 1, 2] and rl.rot == 0


# ----------------------------------------------------------------------
# The phase protocol, against the reference plain-list model
# ----------------------------------------------------------------------
def _reference_cycle(lst, cycle, drop, appends):
    """One scan-engine cycle: rotate by slicing, drop, append at end."""
    n = len(lst)
    if n:
        offset = cycle % n
        lst = lst[offset:] + lst[:offset]
    lst = [x for x in lst if x not in drop]
    return lst + appends


def _rotating_cycle(rl, cycle, parked, drop, appends):
    """The same cycle via the simulator's RotatingList moves."""
    if rl.tail:
        rl.fold()
    items = rl.items
    n = len(items)
    if n:
        start = rl.rot + cycle % n
        if start >= n:
            start -= n
        if parked:
            # All-parked fast path: the cursor advance IS the rotation.
            rl.rot = start
        else:
            order = items[start:] + items[:start] if start else items
            survivors = [x for x in order if x not in drop]
            rl.items = order if len(survivors) == len(order) else survivors
            rl.rot = 0
    for x in appends:
        rl.append(x)


def test_phase_protocol_matches_reference_model():
    """Randomized cycles of park/visit/drop/append stay list-identical."""
    rng = random.Random(1234)
    ref = []
    rl = RotatingList()
    next_id = 0
    for cycle in range(400):
        # All-parked cycles must not drop anything (parked worms stay).
        parked = ref and rng.random() < 0.3
        drop = set()
        if not parked and ref and rng.random() < 0.5:
            drop = set(rng.sample(ref, rng.randint(1, min(3, len(ref)))))
        appends = []
        if rng.random() < 0.6:
            appends = list(range(next_id, next_id + rng.randint(1, 3)))
            next_id += len(appends)
        ref = _reference_cycle(ref, cycle, drop if not parked else set(),
                               appends)
        _rotating_cycle(rl, cycle, parked, drop, appends)
        assert rl.to_list() == ref, f"diverged at cycle {cycle}"
        assert len(rl) == len(ref)


def test_long_parked_stretch_is_pure_cursor_motion():
    """Many consecutive all-parked cycles never reallocate ``items``."""
    rl = make(list(range(7)))
    ref = list(range(7))
    items_obj = rl.items
    for cycle in range(50):
        ref = _reference_cycle(ref, cycle, set(), [])
        _rotating_cycle(rl, cycle, True, set(), [])
        assert rl.items is items_obj
        assert rl.to_list() == ref
