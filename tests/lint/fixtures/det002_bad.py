"""Offending fixture: module-level RNG state."""

import random
from random import randrange  # expect: DET002


def draw() -> float:
    return random.random()  # expect: DET002


def shuffle(items: list) -> None:
    random.shuffle(items)  # expect: DET002


def pick() -> int:
    return randrange(8)
