"""The 4-node true-routing-deadlock scenario.

``ring4-cross`` is the only scenario in the grid with a genuine,
fault-free routing deadlock (opposite pairs on a 4-ring, both directions
minimal).  It is the strongest form of the paper's 0-FN claim — and the
cell where the probe mechanism's victim-based detection honestly fails
without a recovery scheme (see docs/verification.md).
"""

from __future__ import annotations

from repro.verify.checker import explore
from repro.verify.counterexample import check_counterexample
from repro.verify.library import cases_for, ring4_cross


def test_ring4_cross_verdicts() -> None:
    results = {
        case.label(): explore(case, max_states=500_000)
        for case in cases_for(ring4_cross())
    }
    for label in (
        "ring4-cross/ndm/simple",
        "ring4-cross/ndm/selective",
        "ring4-cross/pdm",
    ):
        verdict = results[label]
        assert verdict.verdict == "proved", label
        # A true deadlock forms and is detected within a small bound.
        assert 0 < verdict.max_undetected_span <= 5
    timeout = results["ring4-cross/timeout"]
    assert timeout.verdict == "proved"
    probe = results["ring4-cross/probe"]
    assert probe.verdict == "refuted"
    assert probe.violation is not None
    assert probe.violation.kind == "false-negative"
    assert probe.violation.loop is not None
    check_counterexample(probe.case, probe.violation)

