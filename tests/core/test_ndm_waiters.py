"""NDM waiter bookkeeping: registration counts and wakeup-set hygiene.

Two layers of bookkeeping hang off blocked messages and must stay exactly
in sync with the network state:

* the *selective-promotion* maps (``ndm.reset_targets``: for each output
  channel, the indices of the input channels hosting blocked headers that
  request it, with multiplicity) that :meth:`NewDetectionMechanism.on_i_reset` consults;
* the *event-engine* wakeup sets (``pc.route_waiters`` /
  ``pc.header_waiters``, by message id) that re-awaken parked headers.

A leak in either direction is silent in normal runs — stale entries cause
spurious promotions (extra false detections), missing entries cause lost
wakeups (the event engine strands a worm).  These tests reconcile both
structures against the ground truth recomputed from the message
population, including under a saturated stress run.
"""

from __future__ import annotations

from repro.core.ndm import NewDetectionMechanism
from repro.figures.scenarios import Scenario, place_worm, scenario_config
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus, PortKind


# ----------------------------------------------------------------------
# Ground-truth reconciliation helpers
# ----------------------------------------------------------------------
def expected_selective_waiters(sim: Simulator, marked: bool = False):
    """Recompute the selective waiter maps from the message population.

    With ``marked=False``: contributions of blocked, *unmarked* in-network
    messages.  Every such message is registered (its first failed attempt
    ran the detector, and only routing success / worm teardown
    unregister).  With ``marked=True``: contributions of blocked messages
    already ``marked_deadlocked`` — these are ambiguous, because
    ``_attempt_route`` skips the detector for marked messages: one marked
    at *this* router registered before detection, one that re-blocked at a
    later router after being marked never did.
    """
    expected = {
        pc: {} for pc in sim.channels if pc.kind is not PortKind.INJECTION
    }
    for m in sim.active_messages:
        if m.status is not MessageStatus.IN_NETWORK or not m.first_attempt_done:
            continue
        if m.marked_deadlocked is not marked:
            continue
        for pc in m.feasible_pcs:
            counts = expected[pc]
            i = m.input_pc.index
            counts[i] = counts.get(i, 0) + 1
    return expected


def assert_selective_waiters_consistent(sim: Simulator) -> None:
    """Exact reconciliation, with a bounded allowance for marked worms.

    For every (output, input) pair:
    ``unmarked <= actual <= unmarked + marked`` — no leaked entries (an
    actual count above what live blocked messages explain) and no lost
    registrations (below what unmarked blocked messages require).
    """
    unmarked = expected_selective_waiters(sim, marked=False)
    marked = expected_selective_waiters(sim, marked=True)
    for pc, floor in unmarked.items():
        actual = dict(sim.detector.reset_targets[pc.index])
        slack = marked[pc]
        for inp in set(floor) | set(actual) | set(slack):
            lo = floor.get(inp, 0)
            hi = lo + slack.get(inp, 0)
            got = actual.get(inp, 0)
            assert lo <= got <= hi, (
                f"{pc}: waiters[{inp}] == {got}, expected between {lo} "
                f"and {hi} (marked slack {slack.get(inp, 0)})"
            )


def assert_wakeup_sets_consistent(sim: Simulator) -> None:
    """Wakeup-set membership must mirror ``wait_registered`` exactly."""
    registered = {
        m for m in sim.active_messages if getattr(m, "wait_registered", False)
    }
    ids = {m.id for m in registered}
    for m in registered:
        for pc in m.feasible_pcs:
            assert m.id in (pc.route_waiters or ())
        if m.input_pc is not None:
            assert m.id in (m.input_pc.header_waiters or ())
    for pc in sim.channels:
        for m in pc.route_waiters or ():
            assert m in ids, f"stale route waiter {m} on {pc}"
        for m in pc.header_waiters or ():
            assert m in ids, f"stale header waiter {m} on {pc}"


# ----------------------------------------------------------------------
# Unit tests of the count arithmetic (no simulator needed)
# ----------------------------------------------------------------------
class _Stub:
    """Hashable attribute bag (SimpleNamespace defines eq but not hash)."""

    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)

    def __repr__(self):
        return getattr(self, "name", super().__repr__())


def _stub_ndm(*names: str):
    """A selective NDM armed for one stub channel per name."""
    ndm = NewDetectionMechanism(16, selective_promotion=True)
    ndm.reset_targets = [{} for _ in names]
    return ndm, [_Stub(name=name, index=i) for i, name in enumerate(names)]


def _stub_message(input_pc, feasible_pcs):
    return _Stub(
        input_pc=input_pc,
        feasible_pcs=tuple(feasible_pcs),
        first_attempt_done=True,
    )


class TestWaiterCounts:
    def test_register_increments_per_feasible_channel(self):
        ndm, (out_a, out_b, inp) = _stub_ndm("a", "b", "in")
        m = _stub_message(inp, [out_a, out_b])
        ndm._register_waiter(m, inp.index)
        assert ndm.reset_targets[out_a.index] == {inp.index: 1}
        assert ndm.reset_targets[out_b.index] == {inp.index: 1}

    def test_two_messages_same_input_count_to_two(self):
        ndm, (out, inp) = _stub_ndm("out", "in")
        waiters = ndm.reset_targets[out.index]
        m1 = _stub_message(inp, [out])
        m2 = _stub_message(inp, [out])
        ndm._register_waiter(m1, inp.index)
        ndm._register_waiter(m2, inp.index)
        assert waiters == {inp.index: 2}
        ndm._unregister_waiter(m1)
        assert waiters == {inp.index: 1}
        ndm._unregister_waiter(m2)
        assert waiters == {}

    def test_unregister_never_registered_is_noop(self):
        ndm, (out, inp) = _stub_ndm("out", "in")
        m = _stub_message(inp, [out])
        m.first_attempt_done = False  # routed on the first try
        ndm._unregister_waiter(m)
        assert ndm.reset_targets[out.index] == {}

    def test_unregister_distinct_inputs_keeps_other(self):
        ndm, (out, in1, in2) = _stub_ndm("out", "in1", "in2")
        m1 = _stub_message(in1, [out])
        m2 = _stub_message(in2, [out])
        ndm._register_waiter(m1, in1.index)
        ndm._register_waiter(m2, in2.index)
        ndm._unregister_waiter(m1)
        assert ndm.reset_targets[out.index] == {in2.index: 1}


# ----------------------------------------------------------------------
# Scenario-level reconciliation
# ----------------------------------------------------------------------
class TestScenarioBookkeeping:
    def _blocked_pair(self):
        config = scenario_config("ndm", 16, selective_promotion=True)
        scenario = Scenario(Simulator(config))
        sim = scenario.sim
        # A long worm advances east; B blocks requesting A's channel.
        a = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=36)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        assert b.is_blocked()
        return sim, a, b

    def test_blocked_header_registered_until_routed(self):
        sim, a, b = self._blocked_pair()
        assert_selective_waiters_consistent(sim)
        assert any(
            b.input_pc.index in sim.detector.reset_targets[pc.index]
            for pc in b.feasible_pcs
        )
        # Run until B is no longer blocked at this router (A's tail passes).
        for _ in range(80):
            sim.step()
            if not b.is_blocked():
                break
        assert_selective_waiters_consistent(sim)

    def test_delivery_clears_all_registrations(self):
        sim, a, b = self._blocked_pair()
        for _ in range(400):
            sim.step()
            if not sim.active_messages:
                break
        assert not sim.active_messages
        assert_selective_waiters_consistent(sim)  # all maps empty now
        assert_wakeup_sets_consistent(sim)
        assert not any(sim.detector.reset_targets)
        for pc in sim.channels:
            assert not pc.route_waiters
            assert not pc.header_waiters


# ----------------------------------------------------------------------
# Saturation stress: invariants hold continuously under heavy load
# ----------------------------------------------------------------------
def _stress_config(**overrides) -> SimulationConfig:
    config = SimulationConfig(
        radix=8,
        dimensions=2,
        vcs_per_channel=2,
        warmup_cycles=0,
        measure_cycles=600,
        seed=7,
        engine="event",
    )
    config.detector.mechanism = "ndm"
    config.detector.threshold = 32
    config.detector.selective_promotion = True
    config.traffic.injection_rate = 0.8  # well beyond saturation
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _stress(sim: Simulator, cycles: int, every: int = 25) -> None:
    for _ in range(cycles // every):
        for _ in range(every):
            sim.step()
        sim.check_invariants()
        assert_selective_waiters_consistent(sim)
        assert_wakeup_sets_consistent(sim)


def test_saturated_selective_ndm_invariants():
    sim = Simulator(_stress_config())
    _stress(sim, 600)
    # The run must actually have exercised the machinery under pressure.
    assert sim.stats.detections > 0 or any(
        m.is_blocked() for m in sim.active_messages
    )


def test_saturated_selective_ndm_invariants_with_reinjection():
    sim = Simulator(_stress_config(recovery="progressive-reinject"))
    _stress(sim, 600)


def test_saturated_invariants_no_recovery_wedge():
    """recovery='none': the network wedges; parked state must stay sound."""
    sim = Simulator(_stress_config(recovery="none", vcs_per_channel=1))
    _stress(sim, 600)
    assert sim.stats.detections > 0
