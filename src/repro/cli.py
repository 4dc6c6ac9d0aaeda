"""The ``repro`` umbrella command.

Subcommands are thin wrappers around the per-package CLIs::

    repro faults conformance     detector conformance under faults (repro.faults)
    repro verify run             exhaustive small-network verifier (repro.verify)
    repro experiments ...        table campaigns (repro.experiments)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.faults.cli import build_parser as build_faults_parser
from repro.verify.cli import build_parser as build_verify_parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wormhole deadlock-detection reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    build_faults_parser(
        sub.add_parser(
            "faults",
            help="fault-injection conformance harness",
            description="Fault-injection conformance harness.",
        )
    )
    build_verify_parser(
        sub.add_parser(
            "verify",
            help="exhaustive state-space verifier for small networks",
            description="Exhaustive state-space verifier for small networks.",
        )
    )
    sub.add_parser(
        "experiments",
        help="run the paper's table campaigns (alias of repro-experiments)",
        add_help=False,
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    # "experiments" forwards everything verbatim to the existing CLI, so
    # its rich option surface stays defined in exactly one place.
    if args_list[:1] == ["experiments"]:
        from repro.experiments.cli import main as experiments_main

        result = experiments_main(args_list[1:])
        return int(result) if result is not None else 0
    args = build_parser().parse_args(args_list)
    result = args.func(args)
    return int(result) if result is not None else 0


if __name__ == "__main__":  # pragma: no cover - console-script entry
    raise SystemExit(main())
