"""Command-line entry point: ``repro faults`` / ``python -m repro.faults``.

``repro faults conformance`` runs the ground-truth conformance harness:
every requested detector against every generated fault schedule, under
both simulation engines, asserting bit-identical behaviour per schedule
and reporting false positives / false negatives / detection latency per
detector (see docs/faults.md).  Exits non-zero if any engine pair
diverges, so CI can gate on it directly.
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.func
    result: int = handler(args)
    return result


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
