"""Checker unit and sweep tests: enumeration, verdicts, self-tests."""

from __future__ import annotations

from typing import List

import pytest

from repro.verify.checker import explore
from repro.verify.choices import ChoiceError, ChoiceLog, next_vector
from repro.verify.cli import EXPECTED_REFUTED, sweep, unexpected_outcomes
from repro.verify.counterexample import check_counterexample
from repro.verify.driver import Instance
from repro.verify.encode import digest, encode_state
from repro.verify.library import (
    MECHANISM_GRID,
    all_cases,
    refutation_selftest_case,
    ring2_basic,
    ring2_linkdown,
    ring2_vcstuck,
    ring3_basic,
)
from repro.verify.oracle import (
    dependency_edges,
    has_dependency_cycle,
    statically_deadlock_free,
)
from repro.verify.scenario import VerifyCase


# ----------------------------------------------------------------------
# Choice enumeration primitives
# ----------------------------------------------------------------------
def test_odometer_enumerates_mixed_domains() -> None:
    domains = [2, 3]
    seen: List[List[int]] = []
    vector: List[int] | None = []
    while vector is not None:
        padded = vector + [0] * (len(domains) - len(vector))
        seen.append(padded)
        vector = next_vector(padded, domains)
    assert seen == [
        [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2],
    ]


def test_odometer_empty_domain_list_is_single_leaf() -> None:
    assert next_vector([], []) is None


def test_choice_log_pads_and_validates() -> None:
    log = ChoiceLog([1])
    assert log.draw(3) == 1
    assert log.draw(2) == 0  # past the script: padded zero
    assert log.domains == [3, 2]
    assert log.vector() == [1, 0]
    with pytest.raises(ChoiceError):
        ChoiceLog([5]).draw(2)


# ----------------------------------------------------------------------
# Static oracle
# ----------------------------------------------------------------------
def test_static_oracle_clears_one_hop_rings() -> None:
    for scenario in (ring2_basic(), ring3_basic()):
        case = VerifyCase(scenario=scenario)
        assert statically_deadlock_free(case), scenario.name


def test_static_oracle_flags_ring4_cross() -> None:
    from repro.verify.library import ring4_cross

    case = VerifyCase(scenario=ring4_cross())
    edges = dependency_edges(case.scenario, case.build_config())
    assert has_dependency_cycle(edges)
    assert not statically_deadlock_free(case)


# ----------------------------------------------------------------------
# Exhaustive enumeration: fixpoints and pinned verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(("mechanism", "selective"), MECHANISM_GRID)
def test_ring2_basic_proved_at_fixpoint(
    mechanism: str, selective: bool
) -> None:
    case = VerifyCase(
        scenario=ring2_basic(),
        mechanism=mechanism,
        selective_promotion=selective,
    )
    verdict = explore(case)
    assert verdict.verdict == "proved"
    assert verdict.stopped_on == ""
    # Delivery-only scenario: no reachable state is ever truly deadlocked.
    assert verdict.max_undetected_span == 0
    assert verdict.states == 22
    assert verdict.edges == 23


@pytest.mark.parametrize(("mechanism", "selective"), MECHANISM_GRID)
def test_ring3_basic_proved_at_fixpoint(
    mechanism: str, selective: bool
) -> None:
    case = VerifyCase(
        scenario=ring3_basic(),
        mechanism=mechanism,
        selective_promotion=selective,
    )
    verdict = explore(case)
    assert verdict.verdict == "proved"
    assert verdict.stopped_on == ""
    assert verdict.max_undetected_span == 0
    assert verdict.states == 42


def test_permanent_wedge_splits_the_mechanisms() -> None:
    """The honest known split on a permanent link-down wedge.

    The counter-based mechanisms watch inactivity counters that a dead,
    unoccupied channel never advances — provably blind here — while the
    blocked-header timeout and the probe's dead-end self-detection must
    flag the wedge within a small bound.
    """
    scenario = ring2_linkdown()
    for mechanism, expect in (
        ("ndm", "refuted"),
        ("pdm", "refuted"),
        ("timeout", "proved"),
        ("probe", "proved"),
    ):
        verdict = explore(VerifyCase(scenario=scenario, mechanism=mechanism))
        assert verdict.verdict == expect, mechanism
        if expect == "refuted":
            assert verdict.violation is not None
            assert verdict.violation.kind == "false-negative"
            assert verdict.violation.loop is not None
            check_counterexample(verdict.case, verdict.violation)
        else:
            # Eventual detection, within a small measured bound.
            assert 0 < verdict.max_undetected_span <= 5


def test_refutation_selftest_fires() -> None:
    """The null detector must refute, or the proofs are vacuous."""
    verdict = explore(refutation_selftest_case())
    assert verdict.verdict == "refuted"
    assert verdict.violation is not None
    assert verdict.violation.kind == "false-negative"
    check_counterexample(verdict.case, verdict.violation)


def test_collision_cross_check_validates_encoding() -> None:
    """Re-expanding every dedupe hit must find no behavioural divergence.

    ``ring2-vcstuck`` has the densest quotient of the fast grid (extra
    lanes mean real arbitration); an unsound clamp or a missed field in
    the encoding surfaces here as ``EncodingUnsound``.
    """
    case = VerifyCase(scenario=ring2_vcstuck(), mechanism="ndm")
    verdict = explore(case, collision_checks=10_000)
    assert verdict.verdict == "proved"


def test_encoding_is_stable_across_instances() -> None:
    case = VerifyCase(scenario=ring2_basic(), mechanism="ndm")
    assert digest(encode_state(Instance(case))) == digest(
        encode_state(Instance(case))
    )


# ----------------------------------------------------------------------
# The gating sweep: every cell matches its expected verdict
# ----------------------------------------------------------------------
def test_sweep_matches_expected_verdicts() -> None:
    verdicts = sweep()
    assert unexpected_outcomes(verdicts) == []
    labels = {v.case.label() for v in verdicts}
    # ISSUE acceptance: at least one 2-node and one 3-node configuration
    # per mechanism/promotion cell, enumerated to fixpoint.
    for mechanism, selective in MECHANISM_GRID:
        suffix = (
            f"{mechanism}/selective"
            if selective
            else (f"{mechanism}/simple" if mechanism == "ndm" else mechanism)
        )
        assert f"ring2-basic/{suffix}" in labels
        assert f"ring3-basic/{suffix}" in labels
    for v in verdicts:
        assert v.verdict != "inconclusive"
        if v.case.label() in EXPECTED_REFUTED:
            assert v.verdict == "refuted"
        else:
            assert v.verdict == "proved"


def test_grid_labels_are_unique() -> None:
    cases = all_cases()
    labels = [case.label() for case in cases]
    assert len(labels) == len(set(labels))
