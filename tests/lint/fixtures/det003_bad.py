"""Offending fixture: hash-ordered iteration in an order-sensitive module."""

from typing import Dict, List, Set


class Channel:
    waiters: Set["Message"]

    def wake_all(self) -> None:
        for waiter in self.waiters:  # expect: DET003
            waiter.retry()

    def snapshot(self) -> None:
        for waiter in list(self.waiters):  # expect: DET003
            waiter.poke()


def drain() -> None:
    parked = {object(), object()}
    for item in parked:  # expect: DET003
        item.drop()


def scan_keys() -> None:
    table: Dict[str, int] = {}
    for key in table.keys():  # expect: DET003
        print(key)


def teardown(spans: List["VirtualChannel"]) -> None:
    # A seeded free_worm defect that tier-1 passes: lanes released in
    # the set's hash order.
    vcs = list(set(spans))
    for vc in vcs:  # expect: DET003
        vc.release()


def plan(by_key: Dict[str, List[int]]) -> None:
    # A seeded plan_batches defect that tier-1 passes: str-keyed groups
    # in PYTHONHASHSEED order.
    for key in set(by_key):  # expect: DET003
        print(key)


def comprehension() -> list:
    blocked: Set["Message"] = set()
    return [m for m in blocked]  # expect: DET003


class Simulator:
    def _injection_phase(self, cycle: int) -> None:
        # Int elements are exempt elsewhere, not in a cycle phase: the
        # set's slot layout differs across CPython versions.
        nodes = set(range(8))
        for node in nodes:  # expect: DET003
            print(node)
