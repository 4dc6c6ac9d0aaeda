"""Replayable counterexamples: serialization, validation, seed corpus.

A refuted verdict carries everything needed to reproduce the violation
from scratch: the full :class:`~repro.verify.scenario.VerifyCase` and
the (BFS-shortest) choice trace, plus the lasso loop for liveness
refutations.  This module writes those out as standalone JSON files,
loads them back, and — crucially — *re-validates* them against the live
simulator, so a stale counterexample (one the implementation has since
fixed) fails loudly instead of silently passing.

Files dropped into ``tests/verify/counterexamples/`` are auto-loaded by
the regression suite (see ``tests/verify/test_counterexample_corpus.py``)
the same way ``tests/faults/golden_conformance.json`` pins conformance
gradings: every sweep-found refutation becomes a permanent regression
test by committing its JSON file.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.verify.checker import Verdict, Violation, classify_violation
from repro.verify.choices import ChoiceError
from repro.verify.driver import Instance
from repro.verify.encode import digest, encode_state
from repro.verify.scenario import VerifyCase

FORMAT_VERSION = 1


class ReplayMismatch(AssertionError):
    """A stored counterexample no longer reproduces its violation."""


def counterexample_payload(verdict: Verdict) -> Dict[str, Any]:
    """JSON-shaped payload for a refuted verdict."""
    if verdict.violation is None:
        raise ValueError("only refuted verdicts carry a counterexample")
    return {
        "format": FORMAT_VERSION,
        "label": verdict.case.label(),
        "case": asdict(verdict.case),
        "violation": asdict(verdict.violation),
    }


def write_counterexample(verdict: Verdict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(counterexample_payload(verdict), indent=2, sort_keys=True)
        + "\n"
    )


def load_counterexample(path: Path) -> Tuple[VerifyCase, Violation]:
    payload = json.loads(path.read_text())
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported counterexample format "
            f"{payload.get('format')!r}"
        )
    return (
        VerifyCase.from_dict(payload["case"]),
        Violation.from_dict(payload["violation"]),
    )


def iter_corpus(directory: Path) -> Iterator[Path]:
    """Counterexample files under ``directory``, stable order."""
    if not directory.is_dir():
        return
    yield from sorted(directory.glob("*.json"))


def check_counterexample(case: VerifyCase, violation: Violation) -> None:
    """Replay a counterexample; raise :class:`ReplayMismatch` if stale."""
    if violation.kind == "false-negative":
        _check_liveness(case, violation)
    else:
        _check_safety(case, violation)


def _check_liveness(case: VerifyCase, violation: Violation) -> None:
    if violation.loop is None or violation.message_id is None:
        raise ReplayMismatch(
            "false-negative counterexample missing loop or message id"
        )
    inst = Instance(case)
    inst.run_trace(violation.trace)
    mid = violation.message_id
    if mid not in inst.undetected_deadlocked():
        raise ReplayMismatch(
            f"message {mid} not oracle-deadlocked-and-undetected after "
            "the stem — the false negative no longer reproduces"
        )
    start = digest(encode_state(inst))
    inst.run_trace(violation.loop)
    if mid not in inst.undetected_deadlocked():
        raise ReplayMismatch(
            f"message {mid} escaped or was detected inside the loop — "
            "the false negative no longer reproduces"
        )
    if digest(encode_state(inst)) != start:
        raise ReplayMismatch(
            "loop did not return to its starting state — the stored "
            "lasso is stale"
        )


def _check_safety(case: VerifyCase, violation: Violation) -> None:
    inst = Instance(case)
    if violation.trace:
        inst.run_trace(violation.trace[:-1])
    try:
        if violation.trace:
            inst.step_cycle(violation.trace[-1])
        inst.check_structure()
    except (AssertionError, ChoiceError) as exc:
        reproduced = classify_violation(exc)
        if reproduced != violation.kind:
            raise ReplayMismatch(
                f"trace reproduced a {reproduced!r} violation, but the "
                f"stored counterexample claims {violation.kind!r}: {exc}"
            ) from exc
        return
    raise ReplayMismatch(
        f"trace completed without reproducing the stored "
        f"{violation.kind!r} violation"
    )
