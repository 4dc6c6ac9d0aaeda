"""Command-line entry point: ``repro verify`` / ``python -m repro.verify``.

``repro verify run`` sweeps the scenario grid of
:mod:`repro.verify.library`, exhaustively enumerating every (scenario,
mechanism, promotion, fault-class) cell to fixpoint and reporting the
verdict per cell — ``proved`` with the measured worst-case detection
bound, or ``refuted`` with a minimized, replayable counterexample.
Exits non-zero on any *unexpected* refutation: cells listed in
``EXPECTED_REFUTED`` (the honest counter-mechanism limits on permanent
link-down wedges, plus the null-detector self-test) must refute, and the
sweep equally fails if one of them stops doing so.

``repro verify list`` prints the grid; ``repro verify replay`` re-runs a
stored counterexample JSON against the live simulator and reports
whether it still reproduces.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.verify.checker import Verdict, explore
from repro.verify.counterexample import (
    check_counterexample,
    load_counterexample,
    write_counterexample,
)
from repro.verify.library import all_cases, refutation_selftest_case

#: Cells whose refutation is the *expected* honest outcome.  The
#: inactivity-counter mechanisms watch channel counters that a dead,
#: unoccupied link never advances, so a permanent link-down wedge is
#: undetectable for them by construction; the probe mechanism marks one
#: *victim* per wait cycle and drops probes at already-marked holders,
#: so without a recovery scheme removing victims the surviving members
#: of a true routing deadlock are never flagged; the null detector never
#: detects anything and keeps the liveness machinery honest.
EXPECTED_REFUTED = frozenset(
    {
        "ring2-linkdown/ndm/simple",
        "ring2-linkdown/ndm/selective",
        "ring2-linkdown/pdm",
        "ring2-linkdown/none",
        "ring4-cross/probe",
    }
)


def sweep(
    max_states: int = 200_000,
    max_cycles: int = 10_000,
) -> List[Verdict]:
    """Run the full grid (plus the refutation self-test) and collect verdicts."""
    cases = list(all_cases()) + [refutation_selftest_case()]
    return [
        explore(case, max_states=max_states, max_cycles=max_cycles)
        for case in cases
    ]


def unexpected_outcomes(verdicts: List[Verdict]) -> List[str]:
    """Human-readable list of cells that defied their expected verdict."""
    problems: List[str] = []
    for v in verdicts:
        label = v.case.label()
        if v.verdict == "inconclusive":
            problems.append(f"{label}: inconclusive (stopped on {v.stopped_on})")
        elif v.verdict == "refuted" and label not in EXPECTED_REFUTED:
            kind = v.violation.kind if v.violation else "?"
            problems.append(f"{label}: unexpected refutation ({kind})")
        elif v.verdict == "proved" and label in EXPECTED_REFUTED:
            problems.append(f"{label}: expected a refutation, got a proof")
    return problems


def render_report(verdicts: List[Verdict]) -> str:
    header = (
        f"{'cell':<42} {'fault class':<22} {'verdict':<9} "
        f"{'states':>7} {'edges':>7} {'span':>5}"
    )
    lines = [header, "-" * len(header)]
    for v in verdicts:
        span = str(v.max_undetected_span) if v.proved else "-"
        mark = ""
        if v.verdict == "refuted":
            mark = (
                "  (expected)"
                if v.case.label() in EXPECTED_REFUTED
                else "  (UNEXPECTED)"
            )
            if v.violation is not None:
                mark += f" [{v.violation.kind}]"
        lines.append(
            f"{v.case.label():<42} {v.case.scenario.fault_class:<22} "
            f"{v.verdict:<9} {v.states:>7} {v.edges:>7} {span:>5}{mark}"
        )
    return "\n".join(lines)


def write_verdicts(verdicts: List[Verdict], path: Path) -> None:
    payload: Dict[str, object] = {
        "format": 1,
        "expected_refuted": sorted(EXPECTED_REFUTED),
        "verdicts": [v.to_dict() for v in verdicts],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    verdicts = sweep(max_states=args.max_states, max_cycles=args.max_cycles)
    print(render_report(verdicts))
    elapsed = time.monotonic() - started
    total_states = sum(v.states for v in verdicts)
    print(
        f"\n{len(verdicts)} cells, {total_states} states enumerated "
        f"in {elapsed:.1f}s"
    )
    if args.out:
        write_verdicts(verdicts, Path(args.out))
        print(f"verdicts written to {args.out}")
    if args.counterexamples:
        directory = Path(args.counterexamples)
        for v in verdicts:
            if v.violation is None:
                continue
            name = v.case.label().replace("/", "__") + ".json"
            write_counterexample(v, directory / name)
        print(f"counterexamples written to {directory}")
    problems = unexpected_outcomes(verdicts)
    if problems:
        print("\nFAIL:")
        for p in problems:
            print(f"  {p}")
        return 1
    print("\nall cells match their expected verdicts")
    return 0


def run_list(args: argparse.Namespace) -> int:
    cases = list(all_cases()) + [refutation_selftest_case()]
    for case in cases:
        expected = (
            "refuted" if case.label() in EXPECTED_REFUTED else "proved"
        )
        print(f"{case.label():<42} expected={expected}")
    return 0


def run_replay(args: argparse.Namespace) -> int:
    case, violation = load_counterexample(Path(args.path))
    check_counterexample(case, violation)
    print(
        f"{case.label()}: {violation.kind} violation reproduces "
        f"({len(violation.trace)}-cycle trace"
        + (
            f", {len(violation.loop)}-cycle loop)"
            if violation.loop is not None
            else ")"
        )
    )
    return 0


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure the verify options (reused by the ``repro`` umbrella CLI)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro verify",
            description="Exhaustive state-space verifier for small networks.",
        )
    sub = parser.add_subparsers(dest="verify_command", required=True)
    runp = sub.add_parser(
        "run",
        help="enumerate the scenario grid and report proved/refuted per cell",
        description=(
            "Exhaustively enumerate every (scenario, mechanism, promotion, "
            "fault-class) cell to fixpoint; verdicts are proved, refuted "
            "(with a minimized replayable counterexample) or inconclusive."
        ),
    )
    runp.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="state cap per cell before declaring inconclusive "
        "(default: %(default)s)",
    )
    runp.add_argument(
        "--max-cycles",
        type=int,
        default=10_000,
        help="depth cap per cell before declaring inconclusive "
        "(default: %(default)s)",
    )
    runp.add_argument(
        "--out",
        default=None,
        help="write the verdict JSON to this path",
    )
    runp.add_argument(
        "--counterexamples",
        default=None,
        help="write refutation counterexample JSONs into this directory",
    )
    runp.set_defaults(func=run)

    listp = sub.add_parser(
        "list",
        help="print the verification grid and expected verdicts",
    )
    listp.set_defaults(func=run_list)

    replayp = sub.add_parser(
        "replay",
        help="replay a stored counterexample against the live simulator",
        description=(
            "Load a counterexample JSON and re-run its choice trace; "
            "exits non-zero if the violation no longer reproduces."
        ),
    )
    replayp.add_argument("path", help="counterexample JSON file")
    replayp.set_defaults(func=run_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    return int(result) if result is not None else 0


if __name__ == "__main__":  # pragma: no cover - console-script entry
    raise SystemExit(main())
