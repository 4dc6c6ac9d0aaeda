"""The selective G/P promotion variant, held to the paper's figures.

The paper's simple rule promotes *every* P flag at a router when an
output channel's I flag resets; the selective variant (an ablation, see
``DetectorConfig.selective_promotion``) promotes only the inputs whose
blocked header actually requested that output.  These tests pin three
claims:

* on the paper's figure scenarios the selective variant reaches the same
  verdicts as the simple rule (the figures contain no bystander input
  for selectivity to spare);
* on runs where no header ever blocks, the two variants are bit-identical
  — promotion only ever acts on registered waiters, and waiters only
  exist after a block (property-based);
* on a wedging run without recovery, where marking does not feed back
  into the trajectory, selectivity only ever *removes* G promotions:
  every message the selective variant marks the simple one marks too,
  and no later.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.deadlock import find_deadlocked
from repro.figures.scenarios import build_figure3, build_figure4
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.types import MessageStatus


class TestFigure3Selective:
    """E closes the true deadlock; the G-holder B must still detect."""

    def test_detects_exactly_b(self):
        scenario = build_figure3("ndm", threshold=16, selective_promotion=True)
        scenario.run(400)
        assert scenario.detected_names() == ["B"]

    def test_detection_classified_true(self):
        scenario = build_figure3("ndm", threshold=16, selective_promotion=True)
        scenario.run(400)
        (event,) = scenario.sim.stats.detection_events
        assert event.truly_deadlocked is True
        assert scenario.sim.stats.true_detections == 1


class TestFigure4Selective:
    """Recovery of the selectively-detected B still removes the deadlock."""

    def test_exactly_one_recovery_resolves(self):
        scenario = build_figure4(threshold=16, selective_promotion=True)
        ok = scenario.run_until(
            lambda s: all(
                m.status is MessageStatus.DELIVERED
                for m in s.messages.values()
            ),
            limit=3000,
        )
        assert ok
        assert scenario.sim.stats.recoveries == 1
        assert scenario.detected_names() == ["B"]
        assert find_deadlocked(scenario.sim.active_messages) == set()


# ----------------------------------------------------------------------
# No-contention equivalence (property-based)
# ----------------------------------------------------------------------
params_strategy = st.fixed_dictionaries(
    {
        "dimensions": st.sampled_from([1, 2]),
        "vcs_per_channel": st.integers(min_value=2, max_value=3),
        "rate": st.floats(min_value=0.01, max_value=0.08),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def run_variant(params, selective: bool):
    from repro.network.tracing import Tracer

    config = SimulationConfig(
        radix=4,
        dimensions=params["dimensions"],
        vcs_per_channel=params["vcs_per_channel"],
        warmup_cycles=0,
        measure_cycles=300,
        seed=params["seed"],
        ground_truth_interval=0,
    )
    config.traffic.injection_rate = params["rate"]
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    config.detector.selective_promotion = selective
    sim = Simulator(config)
    sim.tracer = Tracer(capacity=0, kinds=("block",))
    stats = sim.run()
    return sim, stats


class TestNoContentionEquivalence:
    @given(params_strategy)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_variants_identical_without_blocking(self, params):
        """With no blocked header there is never a registered waiter, so
        the promotion rule — the only place the variants differ — never
        has anything to act on."""
        sim_simple, stats_simple = run_variant(params, selective=False)
        assume(sim_simple.tracer.count("block") == 0)
        sim_selective, stats_selective = run_variant(params, selective=True)
        assert sim_selective.tracer.count("block") == 0
        assert stats_simple.to_dict(include_perf=False) == (
            stats_selective.to_dict(include_perf=False)
        )


# ----------------------------------------------------------------------
# Selective detections are a subset of simple ones (shared trajectory)
# ----------------------------------------------------------------------
def first_detections(selective: bool):
    """Message id -> marking cycle on a saturated 8x8 torus, 2 VCs.

    ``recovery="none"``: both variants then ride the same trajectory, so
    their detections compare message by message (with recovery on, each
    variant steers its own run and one seed says nothing).
    """
    config = SimulationConfig(
        radix=8,
        dimensions=2,
        vcs_per_channel=2,
        warmup_cycles=0,
        measure_cycles=1500,
        seed=7,
        recovery="none",
        ground_truth_interval=0,
    )
    config.traffic.injection_rate = 1.2
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    config.detector.selective_promotion = selective
    events = Simulator(config).run().detection_events
    return {event.message_id: event.cycle for event in events}


def test_selective_detections_subset_of_simple_and_no_earlier():
    simple = first_detections(selective=False)
    selective = first_detections(selective=True)
    assert 0 < len(selective) < len(simple)
    assert set(selective) <= set(simple)
    assert all(selective[m] >= simple[m] for m in selective)
