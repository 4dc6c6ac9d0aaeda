"""A message list with O(1) virtual rotation.

The simulator's routing and movement phases visit their message lists in
a per-cycle rotated order (``lst[offset:] + lst[:offset]`` with
``offset = cycle % len(lst)``) for fairness: no message is permanently
scanned first.  Materializing that rotation costs two slice copies and a
concatenation per phase per cycle — paid even on the event engine's
all-parked fast path, where the visit loop itself is skipped entirely.

:class:`RotatingList` removes those copies.  It stores a stable list
``items`` plus a cursor ``rot``; the *conceptual* order — what the
reference scan engine's plain list would contain — is::

    items[rot:] + items[:rot] + tail

``tail`` collects appends made while the cursor is displaced (a physical
append at ``items``'s end would land *before* the wrapped segment
``items[:rot]``, i.e. in the middle of the conceptual order, so appends
are staged separately and folded in at the start of the next visit).

The phase loops manipulate the fields directly; the operations are:

* **rotate** (all-parked fast path): advance ``rot`` — O(1), no copy;
* **fold** (start of a visiting cycle): splice ``tail`` into ``items``
  in conceptual order — O(n), but only on cycles after an append;
* **visit** (mixed cycle): walk ``items`` cyclically from the rotated
  start; if nothing was removed, the new conceptual order is exactly the
  visit order, so advancing ``rot`` suffices — again no copy;
* **compact** (a visit that dropped messages): rebuild ``items`` as the
  survivors in visit order and reset ``rot`` — the only O(n) allocation,
  paid exactly when the reference engine also had to drop entries.

Iteration, ``len`` and truthiness all reflect the conceptual order, so
consumers (detectors' periodic checks, the ground-truth analyzer, tests
comparing engine populations) observe the same sequence the reference
plain list would hold — bit-identical behaviour is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.message import Message


class RotatingList:
    """Stable list + virtual cursor + staged appends (see module doc)."""

    __slots__ = ("items", "rot", "tail")

    def __init__(self) -> None:
        self.items: List["Message"] = []
        self.rot = 0
        self.tail: List["Message"] = []

    # ------------------------------------------------------------------
    # Conceptual-order views (consumers outside the phase hot loops)
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator["Message"]:
        items = self.items
        rot = self.rot
        yield from items[rot:]
        yield from items[:rot]
        yield from self.tail

    def __len__(self) -> int:
        return len(self.items) + len(self.tail)

    def append(self, message: "Message") -> None:
        """Append at the conceptual end (staged until the next fold)."""
        self.tail.append(message)

    def to_list(self) -> List["Message"]:
        """The conceptual order as a plain list (tests, diagnostics)."""
        items = self.items
        rot = self.rot
        return items[rot:] + items[:rot] + self.tail

    # ------------------------------------------------------------------
    # Phase-loop operations
    # ------------------------------------------------------------------
    def fold(self) -> None:
        """Splice staged appends into ``items``, resetting the cursor.

        After a fold the physical order equals the conceptual order, so
        the visit loops can walk ``items`` with plain index arithmetic.
        With the cursor at zero (every visiting cycle resets it) this is
        a cheap in-place extend; slices are only paid after the all-parked
        fast path displaced the cursor.
        """
        rot = self.rot
        if rot:
            items = self.items
            self.items = items[rot:] + items[:rot] + self.tail
            self.rot = 0
            self.tail = []
        else:
            self.items.extend(self.tail)
            self.tail.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RotatingList(n={len(self.items)}, rot={self.rot}, "
            f"staged={len(self.tail)})"
        )
