"""Selective-promotion coverage: the Figures 3/4 family, exhaustively.

``ring2-promotion`` ports the paper's selective-promotion scenario shape
(a worm stalled mid-transfer, the I-flag set/reset path, promotion on
resume) onto a 2-node configuration small enough to enumerate fully.
These tests prove the G/P invariants over *every* adversary schedule of
that family — not just the sampled trajectories of the figure
experiments — and assert the state space actually exercises the
promotion machinery, so the proof is not vacuous.
"""

from __future__ import annotations

import pytest

from repro.verify.checker import explore
from repro.verify.driver import Instance
from repro.verify.library import ring2_promotion
from repro.verify.scenario import VerifyCase


@pytest.mark.parametrize("selective", [False, True], ids=["simple", "selective"])
def test_promotion_family_proved_exhaustively(selective: bool) -> None:
    case = VerifyCase(
        scenario=ring2_promotion(),
        mechanism="ndm",
        selective_promotion=selective,
    )
    verdict = explore(case)
    assert verdict.verdict == "proved", (
        verdict.violation.detail if verdict.violation else ""
    )
    assert verdict.stopped_on == ""
    # The transient wedge is undetected for a bounded window only.
    assert 0 < verdict.max_undetected_span <= case.threshold + 2


@pytest.mark.parametrize("selective", [False, True], ids=["simple", "selective"])
def test_promotion_family_exercises_rule_sites(selective: bool) -> None:
    """Coverage guard: G flags (and selective waiters) must actually occur.

    The exhaustive proof above audits every G/P write through
    ``RecordingNDM``; this test pins that there *are* such writes on the
    canonical path, so a scenario regression (e.g. a fault window that no
    longer stalls the worm) cannot quietly turn the proof vacuous.
    """
    case = VerifyCase(
        scenario=ring2_promotion(),
        mechanism="ndm",
        selective_promotion=selective,
    )
    inst = Instance(case)
    g_events = 0
    g_states = 0
    waiter_states = 0
    for _ in range(14):
        inst.step_cycle()
        g_events += sum(1 for _, is_g in inst.detector.events if is_g)
        g_states += sum(inst.gp_vector())
        if selective:
            waiter_states += sum(1 for w in inst.detector.reset_targets if w)
    assert inst.all_delivered()
    assert g_events > 0, "no G transitions recorded: the proof is vacuous"
    assert g_states > 0
    if selective:
        assert waiter_states > 0, "selective waiter maps never populated"
