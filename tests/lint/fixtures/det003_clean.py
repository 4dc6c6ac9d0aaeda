"""Clean fixture: deterministic iteration patterns."""

from typing import Dict, Set


class Channel:
    waiters: Set["Message"]
    route_waiters: Dict["Message", None]

    def wake_sorted(self) -> None:
        for waiter in sorted(self.waiters, key=id):
            waiter.retry()

    def wake_ordered(self) -> None:
        # Insertion-ordered dict iteration is deterministic.
        for waiter in self.route_waiters:
            waiter.retry()


def int_sets() -> None:
    nodes = set(range(8))
    for node in nodes:
        print(node)
    ids = {1, 2, 3}
    for i in ids:
        print(i)


def int_keyed_dict() -> None:
    table: Dict[int, str] = {}
    for node in table.keys():
        print(node)


class Simulator:
    def _injection_phase(self, cycle: int) -> None:
        nodes = set(range(8))
        for node in sorted(nodes):
            print(node)

    def _rebuild(self) -> None:
        # Outside the cycle phases an int set stays exempt.
        for node in set(range(8)):
            print(node)
