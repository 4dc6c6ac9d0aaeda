"""Unit tests for the NDM protocol state machine.

The figure-level behaviour (paper Figs. 2-5) is covered by
``tests/figures/test_scenarios.py``; these tests exercise the individual
rules of Section 3 through controlled micro-scenarios.
"""

import pytest

from repro.core.detector import DeadlockDetector
from repro.core.ndm import NewDetectionMechanism
from repro.figures.scenarios import (
    Scenario,
    build_figure2,
    place_worm,
    scenario_config,
)
from repro.network.batch import BatchSimulator
from repro.network.config import DetectorConfig
from repro.network.simulator import Simulator
from tests.network.test_engine_equivalence import _config


def fresh_scenario(mechanism="ndm", threshold=16, **kwargs) -> Scenario:
    return Scenario(Simulator(scenario_config(mechanism, threshold, **kwargs)))


def gp_of(sim, pc) -> str:
    """The NDM's G/P flag of input channel ``pc``, as the paper writes it."""
    return "G" if sim.detector.gp[pc.index] else "P"


class TestConstruction:
    def test_t1_must_be_positive(self):
        with pytest.raises(ValueError):
            NewDetectionMechanism(threshold=16, t1=0)

    def test_t1_must_be_below_t2(self):
        with pytest.raises(ValueError, match="t1 << t2"):
            NewDetectionMechanism(threshold=4, t1=4)

    def test_describe_mentions_variant(self):
        simple = NewDetectionMechanism(32)
        selective = NewDetectionMechanism(32, selective_promotion=True)
        assert "simple" in simple.describe()
        assert "selective" in selective.describe()


class TestFirstAttemptRule:
    """Paper Sec. 3: the G/P value set on the first unsuccessful attempt."""

    def test_g_when_requested_channel_active(self):
        # B blocks on a channel whose occupant (A) is advancing -> G.
        scenario = fresh_scenario()
        sim = scenario.sim
        a = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=36)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        assert b.is_blocked()
        assert gp_of(sim, b.input_pc) == "G"

    def test_p_when_requested_channel_already_blocked(self):
        # C blocks on a channel whose occupant (B) was already blocked -> P.
        scenario = build_figure2()
        scenario.run(2)
        c = scenario.messages["C"]
        assert c.is_blocked()
        assert gp_of(scenario.sim, c.input_pc) == "P"

    def test_p_when_input_channel_has_free_lane(self):
        # With several VCs per input channel, an arriver that is not the
        # last one cannot produce deadlock yet -> P.
        config = scenario_config("ndm", 16)
        config.vcs_per_channel = 2
        scenario = Scenario(Simulator(config))
        sim = scenario.sim
        # Fill the single feasible output (2 VCs) with two advancing worms.
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=60)
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=60)
        scenario.run(2)
        # B arrives through an input channel with a free second lane.
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        assert b.is_blocked()
        assert b.input_pc.occupied_count < b.input_pc.num_vcs
        assert gp_of(sim, b.input_pc) == "P"


class TestDetectionRule:
    def test_no_detection_while_some_dt_clear(self):
        # The root keeps advancing: DT stays clear, no detection ever.
        scenario = fresh_scenario(threshold=8)
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=200)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(100)  # A still draining: channel active throughout
        assert not b.marked_deadlocked
        assert scenario.detected_names() == []

    def test_no_detection_with_p_flag_even_after_t2(self):
        scenario = build_figure2(threshold=8)
        c = scenario.messages["C"]
        scenario.run(12)  # beyond t2=8; C's waited channel has been silent
        assert c.is_blocked()
        assert gp_of(scenario.sim, c.input_pc) == "P"
        assert not c.marked_deadlocked

    def test_detection_needs_g_and_all_dt(self):
        # Root advancing at arrival (G), then blocks forever -> detection
        # after roughly t2 more cycles.
        scenario = fresh_scenario(threshold=16, recovery="none")
        sim = scenario.sim
        # A: advancing but will block at (6,0) on a channel occupied by a
        # parked worm.
        place_worm(sim, (6, 0), [(0, +1)], (1, 0), length=60, parked=True)
        a = place_worm(sim, (3, 0), [(0, +1)], (7, 0), length=16)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        ok = scenario.run_until(lambda s: b.marked_deadlocked, limit=400)
        assert ok


class TestGPResets:
    def test_routed_message_resets_input_to_p(self):
        # Selective promotion keeps unrelated I-flag resets from
        # re-promoting the flag we are watching (the simple variant would).
        scenario = fresh_scenario(selective_promotion=True)
        sim = scenario.sim
        a = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=24)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        input_pc = b.input_pc
        assert gp_of(sim, input_pc) == "G"
        # When A's tail frees the channel B routes into it; the routing
        # success must reset B's input channel flag to P.
        ok = scenario.run_until(lambda s: len(b.spans) > 2, limit=400)
        assert ok  # B advanced into the freed channel
        assert gp_of(sim, input_pc) == "P"

    def test_vc_release_resets_to_p(self):
        scenario = fresh_scenario()
        sim = scenario.sim
        a = place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=8)
        pc = a.spans[-1].pc
        sim.detector.gp[pc.index] = 1
        sim.free_worm(a, sim.cycle)
        assert gp_of(sim, pc) == "P"


class TestPromotionVariants:
    @pytest.mark.parametrize("selective", [False, True])
    def test_promotion_restores_g(self, selective):
        """Figure 5's relabeling works under both promotion variants."""
        from repro.figures.scenarios import build_figure5

        scenario, _ = build_figure5(
            "ndm", threshold=16, selective_promotion=selective
        )
        scenario.run(300)
        assert scenario.detected_names()[-1] == "C"

    def test_selective_waiter_registration(self):
        scenario = fresh_scenario(selective_promotion=True)
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=36)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        (requested,) = b.feasible_pcs
        assert b.input_pc.index in sim.detector.reset_targets[requested.index]

    def test_selective_waiter_cleanup_on_route(self):
        scenario = fresh_scenario(selective_promotion=True)
        sim = scenario.sim
        place_worm(sim, (3, 0), [(0, +1)], (6, 0), length=16)
        scenario.run(2)
        b = place_worm(sim, (3, 1), [(1, -1)], (4, 0), length=16)
        scenario.run(2)
        (requested,) = b.feasible_pcs
        waiters = sim.detector.reset_targets[requested.index]
        scenario.run_until(lambda s: not waiters, limit=400)
        assert not waiters


class TestGPRuleOnlyRemovesDetections:
    """The paper's claim for the G/P rule: it only withholds detections,
    so NDM marks only messages PDM's inactivity rule marks too, and the
    selective promotion, which sets fewer G flags, withholds more.  All
    cells of one fold see one trajectory, so with recovery off their
    marked sets are comparable message by message."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_marked_sets_nest_at_equal_threshold(self, seed):
        config = _config(mechanism="ndm", threshold=16, recovery="none", seed=seed)
        cells = [
            DetectorConfig(mechanism="ndm", threshold=16, selective_promotion=True),
            DetectorConfig(mechanism="ndm", threshold=16),
            DetectorConfig(mechanism="ndm-precise", threshold=16),
            DetectorConfig(mechanism="pdm", threshold=16),
        ]
        selective, ndm, precise, pdm = (
            {event.message_id for event in stats.detection_events}
            for stats in BatchSimulator(config, cells).run()
        )
        assert ndm, "NDM detected nothing: the subsets would hold vacuously"
        assert selective <= ndm <= pdm
        assert precise <= pdm


#: A threshold no message of a 400-cycle run reaches.
UNREACHED = 10**6


class _TwinNDM(DeadlockDetector):
    """A simple- and a selective-promotion NDM on one network: every hook
    is forwarded to both, and a header sleeps until either could fire."""

    name = "twin-ndm"

    def __init__(self, threshold: int) -> None:
        super().__init__(threshold)
        self.parts = (
            NewDetectionMechanism(threshold),
            NewDetectionMechanism(threshold, selective_promotion=True),
        )

    def attach(self, sim):
        for part in self.parts:
            part.attach(sim)

    def on_blocked_attempt(self, sim, message, cycle, first_attempt):
        for part in self.parts:
            assert not part.on_blocked_attempt(sim, message, cycle, first_attempt)
        return False

    def blocked_deadline(self, message, cycle):
        deadlines = [part.blocked_deadline(message, cycle) for part in self.parts]
        return min((d for d in deadlines if d is not None), default=None)

    def on_message_routed(self, message, cycle):
        for part in self.parts:
            part.on_message_routed(message, cycle)

    def on_vc_released(self, vc, cycle):
        for part in self.parts:
            part.on_vc_released(vc, cycle)

    def on_message_removed(self, message, cycle):
        for part in self.parts:
            part.on_message_removed(message, cycle)

    def on_i_reset(self, sim, pc, cycle):
        for part in self.parts:
            part.on_i_reset(sim, pc, cycle)


def _gp_per_cycle(sim, detectors, cycles=400):
    """Each detector's G/P list after every cycle."""
    seen = [[] for _ in detectors]
    for _ in range(cycles):
        sim.step()
        for trace, detector in zip(seen, detectors):
            trace.append(list(detector.gp))
    return seen


def test_two_ndms_on_one_network_keep_their_own_flags():
    """Each instance owns its G/P flags: on one wedging recovery-none run
    a simple- and a selective-promotion NDM each match, cycle by cycle,
    a lone run of their variant."""
    twin = _TwinNDM(UNREACHED)
    config = _config(mechanism="ndm", threshold=UNREACHED, recovery="none")
    shared = _gp_per_cycle(Simulator(config, detector=twin), twin.parts)
    for part, together in zip(twin.parts, shared):
        config = _config(
            mechanism="ndm",
            threshold=UNREACHED,
            recovery="none",
            selective_promotion=part.selective_promotion,
        )
        lone = Simulator(config)
        (alone,) = _gp_per_cycle(lone, [lone.detector])
        assert together == alone
    simple, selective = shared
    assert any(map(any, simple)), "no G flag ever set: the check is vacuous"
    assert simple != selective, "the variants never disagreed"
