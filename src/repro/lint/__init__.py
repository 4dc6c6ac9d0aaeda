"""``repro lint`` — the determinism check no single run can make.

A small AST-based analyzer for the one invariant tier-1 cannot test:
iteration order that depends on set layout, which differs across
``PYTHONHASHSEED`` values and CPython versions while every run in one
interpreter agrees with itself (rule DET003).  The other contracts —
effect tables, event-engine protocol, seeded randomness — are held by
tier-1 tests while the simulator runs.  A rule has a stable code, a
short autofix hint, and an inline escape hatch::

    for node in nodes:  # repro-lint: disable=DET003 - order-insensitive

Run it as ``repro lint`` (console script), ``python -m repro.lint``, or
through :func:`run_lint` from tests and tooling.  The rule catalog lives
in ``docs/static-analysis.md``; new rules subclass :class:`Rule` and
self-register in ~30 lines (see ``repro.lint.rules``).
"""

from repro.lint.engine import LintResult, lint_file, run_lint
from repro.lint.findings import (
    Finding,
    format_json,
    format_sarif,
    format_text,
)
from repro.lint.registry import Rule, all_rules, get_rule, register_rule

# Importing the rule module registers the built-in rule.
import repro.lint.rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "lint_file",
    "register_rule",
    "run_lint",
]
