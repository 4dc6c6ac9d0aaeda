"""Every violation in this fixture is covered by a disable comment."""

import time


def stamp() -> float:
    return time.time()  # repro-lint: disable=DET001


def above() -> float:
    # repro-lint: disable=DET001,DET003
    return time.time()


def with_rationale() -> float:
    return time.time()  # repro-lint: disable=DET001 - rationale after the code list
