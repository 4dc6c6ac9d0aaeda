"""Golden-run regression: pin the exact behaviour of a fixed-seed run.

A cycle-accurate simulator's value rests on its behaviour being stable
under refactoring.  This test replays a fixed seeded scenario and
compares a digest of the full event stream against a recorded value.  If
an intentional model change breaks it, re-record by running the test
with ``--update-golden`` semantics: print the new digest (shown in the
assertion message) and update the constant.
"""

import hashlib

from repro.network.simulator import Simulator
from repro.network.tracing import Tracer
from tests.conftest import small_config

#: sha256 over the traced event stream of the fixed run below.
GOLDEN_DIGEST = (
    "3ab59e755f2e1071ac566d478ac08e4b838e227deddd90146f9885974878ec6d"
)


def fixed_run():
    config = small_config(seed=424242)
    config.traffic.injection_rate = 0.35
    config.traffic.lengths = "sl"
    config.detector.mechanism = "ndm"
    config.detector.threshold = 16
    config.warmup_cycles = 0
    config.measure_cycles = 600
    sim = Simulator(config)
    sim.tracer = Tracer(capacity=0)
    sim.run()
    return sim


def digest_of(sim) -> str:
    payload = "\n".join(repr(e) for e in sim.tracer.events)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenRun:
    def test_event_stream_reproducible_within_session(self):
        a, b = fixed_run(), fixed_run()
        assert digest_of(a) == digest_of(b)

    def test_event_stream_matches_golden_digest(self):
        sim = fixed_run()
        digest = digest_of(sim)
        assert digest == GOLDEN_DIGEST, (
            "behaviour of the fixed-seed run changed; if intentional, "
            f"update GOLDEN_DIGEST to {digest!r}"
        )

    def test_event_stream_stats_stable(self):
        """Coarse golden values: these pin the run's aggregate behaviour
        (update deliberately if the model changes)."""
        sim = fixed_run()
        stats = sim.stats
        assert stats.generated == 92
        assert stats.injected == 92
        assert stats.delivered == 84
        assert stats.detections == 0

    def test_event_ordering_causal(self):
        sim = fixed_run()
        for message_id in range(0, sim._next_message_id, 7):
            kinds = sim.tracer.lifecycle(message_id)
            if "deliver" in kinds and "inject" in kinds:
                assert kinds.index("inject") < kinds.index("deliver")
