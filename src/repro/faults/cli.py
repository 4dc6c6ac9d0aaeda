"""Command-line entry point: ``repro faults`` / ``python -m repro.faults``.

``repro faults conformance`` runs the ground-truth conformance harness:
every requested detector against every generated fault schedule, under
both simulation engines, asserting bit-identical behaviour per schedule
and reporting false positives / false negatives / detection latency per
detector (see docs/faults.md).  Exits non-zero if any engine pair
diverges, so CI can gate on it directly.

``repro faults tune`` drives an adaptive threshold controller
(:mod:`repro.core.adaptive`) in closed loop against the same oracle:
propose a threshold, grade it over the fault schedules, feed the verdict
back, repeat until the controller converges; optionally sweep the whole
ladder exhaustively to report how far the adaptive walk landed from the
best fixed threshold.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro.faults.conformance import (
    DEFAULT_DETECTORS,
    make_cases,
    quick_base_config,
    render_report,
    run_conformance,
)


def parse_detectors(spec: str) -> List[str]:
    """Split and validate a comma-separated detector list.

    Every name must be a registered mechanism (``detector_names()``);
    unknown names abort with the valid choices instead of failing deep
    inside the harness with a half-finished report.
    """
    from repro.core.registry import detector_names

    detectors = [d.strip() for d in spec.split(",") if d.strip()]
    if not detectors:
        raise SystemExit("--detectors must name at least one detector")
    valid = detector_names()
    unknown = [d for d in detectors if d not in valid]
    if unknown:
        raise SystemExit(
            f"unknown detector(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(valid)}"
        )
    return detectors


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure the faults options (reused by the ``repro`` umbrella CLI)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro faults",
            description="Fault-injection conformance harness.",
        )
    sub = parser.add_subparsers(dest="faults_command", required=True)
    conf = sub.add_parser(
        "conformance",
        help="grade detectors against the ground-truth oracle under faults",
        description=(
            "Run every detector on seeded fault schedules under both "
            "engines; report FP/FN/latency and check digest equality."
        ),
    )
    conf.add_argument(
        "--quick",
        action="store_true",
        help="use the quick 4x4 regime and 3 schedules (CI profile)",
    )
    conf.add_argument(
        "--schedules",
        type=int,
        default=None,
        help="number of fault schedules (default: 3 quick, 5 otherwise)",
    )
    conf.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for schedule generation (default: 0)",
    )
    conf.add_argument(
        "--detectors",
        default=",".join(DEFAULT_DETECTORS),
        help="comma-separated detector list (default: %(default)s)",
    )
    conf.add_argument(
        "--out",
        default=None,
        help="write the full JSON report to this path",
    )
    conf.add_argument(
        "--cache-dir",
        default=None,
        help="campaign result cache directory (reuses prior runs)",
    )
    conf.add_argument(
        "--manifest",
        default=None,
        help="append cells to this campaign manifest (jsonl)",
    )
    conf.set_defaults(func=run)

    tune = sub.add_parser(
        "tune",
        help="adaptively tune a detector threshold against the oracle",
        description=(
            "Closed-loop threshold tuning: the controller proposes ladder "
            "rungs, each is graded over the fault schedules, and the "
            "oracle verdict drives the next proposal until convergence."
        ),
    )
    tune.add_argument(
        "--mechanism",
        default="probe",
        help="detector family to tune: probe or timeout (default: probe)",
    )
    tune.add_argument(
        "--ladder",
        default=None,
        help="comma-separated threshold ladder (default: 4,8,16,32,64,128)",
    )
    tune.add_argument(
        "--schedules",
        type=int,
        default=3,
        help="fault schedules per evaluation (default: 3)",
    )
    tune.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for schedule generation (default: 0)",
    )
    tune.add_argument(
        "--max-evaluations",
        type=int,
        default=12,
        help="evaluation budget for the adaptive walk (default: 12)",
    )
    tune.add_argument(
        "--exhaustive",
        action="store_true",
        help="also sweep every ladder rung and report the best fixed "
        "threshold next to the adaptive result",
    )
    tune.add_argument(
        "--out",
        default=None,
        help="write the full JSON report to this path",
    )
    tune.set_defaults(func=run_tune)
    return parser


def run(args: argparse.Namespace) -> int:
    base = quick_base_config()
    if not args.quick:
        # The full profile keeps the quick topology but grades a longer
        # window, so rare late heals and drains get exercised too.
        base.measure_cycles = 1000
        base.drain_cycles = 1500
    num_schedules = args.schedules
    if num_schedules is None:
        num_schedules = 3 if args.quick else 5
    if num_schedules < 1:
        raise SystemExit("--schedules must be >= 1")
    detectors = parse_detectors(args.detectors)
    cases = make_cases(base, num_schedules, base_seed=args.seed)
    report = run_conformance(
        base_config=base,
        cases=cases,
        detectors=detectors,
        cache_dir=args.cache_dir,
        manifest_path=args.manifest,
    )
    print(render_report(report))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    if not report["engines_match"]:
        print("FAIL: scan/event digests diverged on at least one schedule")
        return 1
    return 0


def run_tune(args: argparse.Namespace) -> int:
    # Leaf imports, like the harness itself: the tuning loop pulls in the
    # conformance machinery, which plain ``conformance`` CLI calls already
    # pay for but bare ``--help`` should not.
    from repro.core.adaptive import CONTROLLERS, DEFAULT_LADDER
    from repro.faults.adaptive import exhaustive_best, tune

    controller_cls = CONTROLLERS.get(args.mechanism)
    if controller_cls is None:
        raise SystemExit(
            f"unknown mechanism {args.mechanism!r}; "
            f"choose from {', '.join(sorted(CONTROLLERS))}"
        )
    ladder = DEFAULT_LADDER
    if args.ladder:
        try:
            parsed = tuple(
                int(r.strip()) for r in args.ladder.split(",") if r.strip()
            )
        except ValueError:
            raise SystemExit(f"--ladder must be integers, got {args.ladder!r}")
        ladder = parsed
    if args.schedules < 1:
        raise SystemExit("--schedules must be >= 1")
    base = quick_base_config()
    cases = make_cases(base, args.schedules, base_seed=args.seed)
    controller = controller_cls(ladder=ladder)
    report = tune(
        controller,
        base,
        cases=cases,
        max_evaluations=args.max_evaluations,
    )
    print(
        f"adaptive {args.mechanism}: tuned threshold "
        f"{report['tuned_threshold']} after {report['evaluations']} "
        f"evaluations (converged: {report['controller']['converged']})"
    )
    for step in report["trace"]:
        print(
            f"  t={step['threshold']:<5} cost={step['cost']:.3f} "
            f"tp={step['true_positives']} fp={step['false_positives']} "
            f"missed={step['missed']}"
        )
    if args.exhaustive:
        sweep = exhaustive_best(
            base, args.mechanism, ladder, cases, controller=controller
        )
        report["exhaustive"] = sweep
        print(
            f"exhaustive best fixed threshold: {sweep['best_threshold']} "
            f"(adaptive landed on {report['tuned_threshold']})"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.func
    result: int = handler(args)
    return result


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
