"""Counterexample corpus regression: every stored refutation still bites.

Like ``tests/faults/golden_conformance.json``, the JSON files under
``tests/verify/counterexamples/`` pin sweep-found refutations as
permanent regression tests: each one is replayed against the live
simulator and must still reproduce its violation.  If a mechanism change
legitimately fixes one (e.g. the NDM grows a fault-aware path that
detects permanent link-down wedges), delete the stale file, drop the
cell from ``EXPECTED_REFUTED`` and update docs/verification.md — the
failure message of this test is the reminder.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.checker import Violation, explore
from repro.verify.counterexample import (
    ReplayMismatch,
    check_counterexample,
    iter_corpus,
    load_counterexample,
    write_counterexample,
)
from repro.verify.library import refutation_selftest_case, ring2_linkdown
from repro.verify.scenario import VerifyCase

CORPUS_DIR = Path(__file__).parent / "counterexamples"
CORPUS = list(iter_corpus(CORPUS_DIR))


def test_corpus_is_seeded() -> None:
    """The machinery must never run on an empty directory unnoticed."""
    assert CORPUS, f"no counterexample files under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_stored_counterexample_still_reproduces(path: Path) -> None:
    case, violation = load_counterexample(path)
    check_counterexample(case, violation)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_stored_counterexample_is_what_the_checker_writes(
    path: Path, tmp_path: Path
) -> None:
    """Re-exploring a stored file's case writes that file byte for byte,
    so the corpus pins the counterexample format, not only its replay."""
    case, _ = load_counterexample(path)
    out = tmp_path / path.name
    write_counterexample(explore(case), out)
    assert out.read_bytes() == path.read_bytes()


def test_round_trip_through_json(tmp_path: Path) -> None:
    verdict = explore(refutation_selftest_case())
    assert verdict.violation is not None
    out = tmp_path / "selftest.json"
    write_counterexample(verdict, out)
    case, violation = load_counterexample(out)
    assert case == verdict.case
    assert violation == verdict.violation
    check_counterexample(case, violation)


def test_stale_counterexample_is_rejected() -> None:
    """A violation claimed against a mechanism that detects must fail."""
    verdict = explore(refutation_selftest_case())
    assert verdict.violation is not None
    detecting = VerifyCase(scenario=ring2_linkdown(), mechanism="timeout")
    with pytest.raises(ReplayMismatch):
        check_counterexample(detecting, verdict.violation)


def test_malformed_liveness_counterexample_is_rejected() -> None:
    bogus = Violation(
        kind="false-negative",
        detail="missing loop",
        trace=((),),
        loop=None,
        message_id=0,
    )
    with pytest.raises(ReplayMismatch):
        check_counterexample(refutation_selftest_case(), bogus)
