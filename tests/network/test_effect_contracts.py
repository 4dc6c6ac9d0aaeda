"""The kernel's effect contracts, held while the simulator runs.

``repro.network.kernel`` declares which behavioural state each cycle
phase (``PHASE_EFFECTS``), detector hook (``HOOK_CONTRACTS``) and
recovery scheme (``RECOVER_CONTRACT``) may write.  These tests run a
small corpus — the engine-equivalence cases on the event engine (a
``probe`` run among them), an ``ndm-precise`` run, a schedule using
every fault kind and one mixed fold group — with the contracts checked
as it runs:

* every store to a domain attribute of ``Message`` / ``VirtualChannel``
  / ``PhysicalChannel`` / ``Router`` or a detector goes through a
  checking ``__setattr__``, and must be allowed by every phase, hook and
  ``recover`` call on the context stack (an object's own constructor is
  exempt);
* around each of those calls, the domain lists and dicts it may not
  write but its caller may are compared before and after, which finds
  in-place changes (for a hook handed a message or a channel, that
  object's; otherwise the whole network's);
* a float stored in a domain field is a violation anywhere;
* every phase, and every hook or ``recover`` that a registry detector,
  ``BatchObserver`` or recovery scheme overrides, must have run, so the
  corpus cannot silently stop reaching code it claims to check.

The self-tests at the bottom seed each kind of violation into a
detector and require the monitor to report it.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import Counter
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Set, Tuple

import pytest

from repro.core.detector import DeadlockDetector
from repro.core.pdm import PreviousDetectionMechanism
from repro.core.recovery import RecoveryManager
from repro.core.registry import detector_class, detector_names
from repro.network.batch import BatchObserver, BatchSimulator
from repro.network.channel import PhysicalChannel, VirtualChannel
from repro.network.kernel import (
    EFFECT_GROUPS,
    HOOK_CONTRACTS,
    PHASE_EFFECTS,
    PHASE_METHODS,
    RECOVER_CONTRACT,
)
from repro.network.message import Message
from repro.network.router import Router
from repro.network.simulator import Simulator
from tests.network.test_batch_engine import MIXED_CELLS, _mixed_config
from tests.network.test_engine_equivalence import CASES, _config

DOMAIN: FrozenSet[str] = frozenset().union(*EFFECT_GROUPS.values())
#: Domain attributes holding a list or dict that code changes in place.
CONTAINERS = frozenset(
    {"spans", "route_waiters", "header_waiters", "reset_targets", "gp"}
)
#: Of those, the detector lists kept by channel index.
BY_CHANNEL_INDEX = frozenset({"reset_targets", "gp"})
STORED_CLASSES = (Message, VirtualChannel, PhysicalChannel, Router, DeadlockDetector)
_spans = attrgetter("spans")


def _frozen(value: Any) -> Any:
    """Comparable copy of a domain dict, or of a list and the dicts in it
    (selective promotion keeps a refcount dict per channel; the NDM's G/P
    masks are ints, which pass through)."""
    if value is None or value.__class__ is tuple or value.__class__ is int:
        return value
    if value.__class__ is dict:
        return tuple(value.items())
    return tuple(value), [tuple(v.items()) for v in value if v.__class__ is dict]


class ContractMonitor:
    """The context stack, the violations found and the code that ran."""

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.allowed = DOMAIN  # intersection of the stack's contracts
        self.building: Set[int] = set()
        #: attr -> id(owner) -> the list or dict a store put there, for
        #: the simulator being run (``spans`` is read off its messages).
        self.containers: Dict[str, Dict[int, Any]] = {}
        self.sim: Any = None
        #: Violation -> how often it happened.
        self.violations: Counter[str] = Counter()
        self.ran: Set[Tuple[type, str]] = set()

    def store(self, obj: Any, name: str, value: Any) -> None:
        if value.__class__ is float:
            self.violations[f"float {value!r} stored in {name}"] += 1
        elif value.__class__ is list or value.__class__ is dict:
            self.containers.setdefault(name, {})[id(obj)] = value
        if name not in self.allowed and id(obj) not in self.building:
            where = " < ".join(reversed(self.stack))
            self.violations[f"{where} writes {name}"] += 1

    def snapshot(self, attrs: FrozenSet[str], handed: Any) -> Dict[str, Any]:
        """The watched containers of the message or channel a call is
        handed, or of the whole network when it is handed neither."""
        if handed is None:
            return {
                attr: tuple(map(tuple, map(_spans, self.sim.messages.values())))
                if attr == "spans"
                else tuple(map(_frozen, self.containers.get(attr, {}).values()))
                for attr in attrs
            }
        if handed.__class__ is Message:
            channels = [pc for pc in (*handed.feasible_pcs, handed.input_pc) if pc]
        else:
            channels = [getattr(handed, "pc", handed)]
        found: Dict[str, Any] = {}
        for attr in attrs:
            if attr == "spans":
                found[attr] = tuple(getattr(handed, "spans", ()))
            elif attr in BY_CHANNEL_INDEX:
                found[attr] = [
                    [_frozen(targets[pc.index]) for pc in channels]
                    for targets in self.containers.get(attr, {}).values()
                ]
            else:
                found[attr] = [_frozen(getattr(pc, attr)) for pc in channels]
        return found


def _wrap(
    monitor: ContractMonitor, owner: type, name: str, allowed: FrozenSet[str]
) -> Callable[..., Any]:
    fn = owner.__dict__[name]
    label = f"{owner.__name__}.{name}"
    ran = (owner, name)
    attach = name == "attach"
    # The message or channel the call is about scopes its in-place check.
    params = list(inspect.signature(fn).parameters)[1:]
    at = next((i for i, p in enumerate(params) if p in ("message", "vc", "pc")), None)

    def checked(self: Any, *args: Any) -> Any:
        monitor.ran.add(ran)
        if attach and not monitor.stack:  # a new simulator
            monitor.sim = args[0]
            monitor.containers.clear()
        outer = monitor.allowed
        monitor.allowed = outer & allowed
        # Checked here: what the call may not write but its caller may.
        watched = (CONTAINERS & outer) - allowed
        handed = None if at is None else args[at]
        before = monitor.snapshot(watched, handed) if watched else None
        monitor.stack.append(label)
        try:
            return fn(self, *args)
        finally:
            monitor.stack.pop()
            monitor.allowed = outer
            if before is not None:
                after = monitor.snapshot(watched, handed)
                for attr in watched:
                    if after[attr] != before[attr]:
                        monitor.violations[f"{label} changes {attr} in place"] += 1

    return checked


def _wrap_init(monitor: ContractMonitor, cls: type) -> Callable[..., None]:
    init = cls.__dict__["__init__"]

    def building(self: Any, *args: Any, **kwargs: Any) -> None:
        monitor.building.add(id(self))
        try:
            init(self, *args, **kwargs)
        finally:
            monitor.building.discard(id(self))

    return building


def _repro_subclasses(root: type) -> List[type]:
    found: Dict[type, None] = {}
    stack = [root]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found[cls] = None
                stack.append(cls)
    return list(found)


def _patches(
    monitor: ContractMonitor, extra: Tuple[type, ...]
) -> Iterator[Tuple[type, str, Any]]:
    store = monitor.store

    def setattr_checked(obj: Any, name: str, value: Any) -> None:
        if name in DOMAIN:
            store(obj, name, value)
        object.__setattr__(obj, name, value)

    for cls in STORED_CLASSES:
        yield cls, "__setattr__", setattr_checked
    for cls in (Message, VirtualChannel, PhysicalChannel, Router):
        yield cls, "__init__", _wrap_init(monitor, cls)
    for method, phase in PHASE_METHODS.items():
        yield Simulator, method, _wrap(monitor, Simulator, method, PHASE_EFFECTS[phase])
    for cls in [DeadlockDetector, *_repro_subclasses(DeadlockDetector), *extra]:
        for hook in HOOK_CONTRACTS.keys() & vars(cls).keys():
            yield cls, hook, _wrap(monitor, cls, hook, HOOK_CONTRACTS[hook])
    for cls in _repro_subclasses(RecoveryManager):
        yield cls, "recover", _wrap(monitor, cls, "recover", RECOVER_CONTRACT)


@contextlib.contextmanager
def contracts_checked(*extra: type) -> Iterator[ContractMonitor]:
    """Instrument the kernel classes (and the detector classes ``extra``)
    for the duration of the block."""
    monitor = ContractMonitor()
    saved = []
    try:
        for cls, name, replacement in list(_patches(monitor, extra)):
            saved.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, replacement)
        yield monitor
    finally:
        for cls, name, original in reversed(saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


def unreached(monitor: ContractMonitor) -> List[str]:
    """Phases and overriding hooks / ``recover`` bodies that never ran."""
    owners = [detector_class(name) for name in detector_names()] + [BatchObserver]
    expected = {(Simulator, method) for method in PHASE_METHODS}
    for cls in owners:
        expected |= {(cls, hook) for hook in HOOK_CONTRACTS.keys() & vars(cls).keys()}
    expected |= {(cls, "recover") for cls in _repro_subclasses(RecoveryManager)}
    return sorted(f"{cls.__name__}.{name}" for cls, name in expected - monitor.ran)


#: One window of every fault kind, inside the corpus runs' 200 cycles.
ALL_FAULT_KINDS = [
    {"kind": "link-down", "start": 30, "end": 90, "channel": 3},
    {"kind": "vc-stuck", "start": 0, "end": 150, "channel": 9, "lane": 1},
    {"kind": "router-stall", "start": 60, "end": 110, "node": 5},
    {"kind": "counter-freeze", "start": 40, "end": 160, "channel": 17},
    {"kind": "counter-lag", "start": 100, "end": 140, "channel": 22, "lag": 12},
]


def _short(**overrides: Any) -> Any:
    """An engine-equivalence config at half its default window, whatever
    window the case sets (the contracts are per call, so a shorter run
    loses no kind of call)."""
    return _config(**{**overrides, "warmup_cycles": 50, "measure_cycles": 150})


def _run_corpus() -> None:
    for case in sorted(CASES):
        Simulator(_short(**CASES[case])).run()
    Simulator(_short(mechanism="ndm-precise", threshold=16)).run()
    Simulator(_short(mechanism="ndm", threshold=16, faults=ALL_FAULT_KINDS)).run()
    BatchSimulator(_mixed_config(warmup_cycles=50, measure_cycles=150), MIXED_CELLS).run()


@pytest.fixture(scope="module")
def corpus_monitor() -> ContractMonitor:
    with contracts_checked() as monitor:
        _run_corpus()
    return monitor


def test_corpus_keeps_every_effect_contract(corpus_monitor):
    assert dict(corpus_monitor.violations) == {}


def test_corpus_runs_every_phase_and_overriding_hook(corpus_monitor):
    assert unreached(corpus_monitor) == []


def test_instrumentation_leaves_the_run_unchanged():
    config = _short(**CASES["ndm-selective"])
    plain = Simulator(config).run().to_dict(include_perf=False)
    with contracts_checked():
        checked = Simulator(config).run().to_dict(include_perf=False)
    assert checked == plain
    assert "__setattr__" not in vars(Message)


# ----------------------------------------------------------------------
# Self-tests: each kind of violation, seeded into a detector, is reported
# ----------------------------------------------------------------------
class _DeadlineWritesCounter(PreviousDetectionMechanism):
    """A query hook writing a channel counter (contract: writes nothing)."""

    def blocked_deadline(self, message, cycle):
        for pc in message.feasible_pcs:
            pc.counter_lag = 0
        return super().blocked_deadline(message, cycle)


class _DeadlineRequeuesWaiter(PreviousDetectionMechanism):
    """A query hook moving the header to the back of its channels'
    waiter dicts: an in-place change of park state, reordering wakes."""

    def blocked_deadline(self, message, cycle):
        for pc in message.feasible_pcs:
            waiters = pc.route_waiters
            if message.id in waiters:
                waiters[message.id] = waiters.pop(message.id)
        return super().blocked_deadline(message, cycle)


class _FloatThreshold(PreviousDetectionMechanism):
    def attach(self, sim):
        for pc in sim.channels:
            pc.i_threshold = self.threshold / 2


@pytest.mark.parametrize(
    "detector,report",
    [
        (_DeadlineWritesCounter, "_DeadlineWritesCounter.blocked_deadline < "),
        (_DeadlineRequeuesWaiter, "blocked_deadline changes route_waiters in place"),
        (_FloatThreshold, "float 8.0 stored in i_threshold"),
    ],
)
def test_seeded_violation_is_reported(detector, report):
    with contracts_checked(detector) as monitor:
        Simulator(_short(**CASES["pdm"]), detector=detector(16)).run()
    assert any(report in v for v in monitor.violations), monitor.violations


def test_unreached_hook_is_reported():
    with contracts_checked() as monitor:
        Simulator(_short(**CASES["pdm"])).run()
    missing = unreached(monitor)
    assert "Simulator._probes_phase" in missing
    assert "ProbeDetection.probe_phase" in missing
    assert "BatchObserver.periodic_check" in missing
    assert "RegressiveRecovery.recover" in missing
    assert "PreviousDetectionMechanism.on_blocked_attempt" not in missing
