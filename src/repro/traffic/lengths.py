"""Message length distributions.

The paper evaluates 16-flit messages (**s**), 64-flit (**l**), 256-flit
(**L**) and a hybrid load (**sl**) of 60 % 16-flit and 40 % 64-flit
messages.  The mean length converts the paper's flits/cycle/node injection
rates into per-cycle message generation probabilities.
"""

from __future__ import annotations

import random
from typing import Dict


class LengthSpec:
    """Strategy interface for drawing message lengths (in flits)."""

    name = "abstract"

    def draw(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


class FixedLength(LengthSpec):
    """Every message has exactly ``flits`` flits."""

    name = "fixed"

    def __init__(self, flits: int) -> None:
        if flits < 1:
            raise ValueError(f"message length must be >= 1 flit, got {flits}")
        self.flits = flits

    def draw(self, rng: random.Random) -> int:
        return self.flits

    def mean(self) -> float:
        return float(self.flits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLength({self.flits})"


class BimodalLength(LengthSpec):
    """Mix of two fixed lengths (the paper's ``sl`` load)."""

    name = "bimodal"

    def __init__(self, short: int = 16, long: int = 64, short_fraction: float = 0.6) -> None:
        if short < 1 or long < 1:
            raise ValueError("message lengths must be >= 1 flit")
        if not 0.0 <= short_fraction <= 1.0:
            raise ValueError(
                f"short_fraction must be in [0, 1], got {short_fraction}"
            )
        self.short = short
        self.long = long
        self.short_fraction = short_fraction

    def draw(self, rng: random.Random) -> int:
        if rng.random() < self.short_fraction:
            return self.short
        return self.long

    def mean(self) -> float:
        return self.short_fraction * self.short + (1 - self.short_fraction) * self.long

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BimodalLength(short={self.short}, long={self.long}, "
            f"short_fraction={self.short_fraction})"
        )


#: The paper's named message-size workloads (Table captions: s, l, L, sl).
PAPER_SIZES: Dict[str, str] = {
    "s": "16-flit messages",
    "l": "64-flit messages",
    "L": "256-flit messages",
    "sl": "60% 16-flit + 40% 64-flit",
}


def check_length_spec_name(name: str) -> None:
    """Raise :func:`make_length_spec`'s ``ValueError`` for an unknown name."""
    if name not in PAPER_SIZES:
        raise ValueError(
            f"unknown length spec {name!r}; choose from {sorted(PAPER_SIZES)}"
        )


def make_length_spec(name: str) -> LengthSpec:
    """The paper's message-size workload ``name``: ``"s"``, ``"l"``,
    ``"L"`` or ``"sl"`` (see :data:`PAPER_SIZES`)."""
    check_length_spec_name(name)
    if name == "sl":
        return BimodalLength(short=16, long=64, short_fraction=0.6)
    return FixedLength({"s": 16, "l": 64, "L": 256}[name])
