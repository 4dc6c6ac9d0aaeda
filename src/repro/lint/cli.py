"""Command-line entry point: ``repro lint`` / ``python -m repro.lint``."""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path
from typing import List, Optional, Set

from repro.lint.engine import run_lint
from repro.lint.findings import format_json, format_sarif, format_text
from repro.lint.registry import all_rules


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure the lint options (reused by the ``repro`` umbrella CLI)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="Set-order (DET003) static analysis for repro.",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "output format (json for machine consumption, sarif for "
            "CI code-scanning upload)"
        ),
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "lint only files changed vs. git HEAD (plus untracked); "
            "falls back to the full tree outside a git checkout"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="show the autofix hint under each finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.set_defaults(func=run)
    return parser


def _git_changed_files(paths: List[str]) -> Optional[List[str]]:
    """Changed-vs-HEAD plus untracked ``*.py`` files under ``paths``.

    Returns None when git is unavailable or we are not inside a
    checkout, so the caller can fall back to a full-tree run.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    names: Set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, check=True, cwd=top
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        names.update(line.strip() for line in out.splitlines() if line.strip())
    roots = [Path(p).resolve() for p in paths]
    selected: List[str] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        candidate = (Path(top) / name).resolve()
        if not candidate.exists():  # deletions also appear in the diff
            continue
        if any(candidate == r or r in candidate.parents for r in roots):
            selected.append(str(candidate))
    return selected


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scopes) if rule.scopes else "repo-wide"
            print(f"{rule.code}  {rule.summary}")
            print(f"        scope: {scope}")
            print(f"        fix:   {rule.hint}")
        return 0
    paths: List[str] = list(args.paths)
    if getattr(args, "changed", False):
        changed = _git_changed_files(paths)
        if changed is not None:
            paths = changed
    result = run_lint(paths)
    if args.format == "json":
        print(format_json(result.findings))
    elif args.format == "sarif":
        meta = [(r.code, r.summary, r.hint) for r in all_rules()]
        print(format_sarif(result.findings, meta))
    else:
        if result.findings:
            print(format_text(result.findings, verbose=args.verbose))
        noun = "file" if result.files_checked == 1 else "files"
        print(
            f"repro lint: {len(result.findings)} finding(s) in "
            f"{result.files_checked} {noun}"
        )
    return 1 if result.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
