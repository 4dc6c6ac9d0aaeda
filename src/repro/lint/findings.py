"""Finding records and the output formatters (text, JSON, SARIF)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        path: file the violation is in (as given to the engine).
        line: 1-based line of the offending construct.
        col: 0-based column of the offending construct.
        code: stable rule code (``DET003``, or ``SYNTAX`` for an
            unparsable file).
        message: one-line description of what is wrong *here*.
        hint: the rule's generic autofix hint (how to resolve or disable).
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def format_text(findings: Iterable[Finding], verbose: bool = False) -> str:
    """``file:line:col: CODE message`` per finding, sorted by location."""
    lines: List[str] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code)):
        lines.append(f"{f.location()}: {f.code} {f.message}")
        if verbose and f.hint:
            lines.append(f"    hint: {f.hint}")
    return "\n".join(lines)


def format_json(findings: Iterable[Finding]) -> str:
    """Machine-readable form: a JSON array of finding objects."""
    payload = [
        asdict(f)
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


#: SARIF 2.1.0 constants (the schema GitHub code scanning ingests).
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_SARIF_VERSION = "2.1.0"


def format_sarif(
    findings: Iterable[Finding],
    rule_meta: Sequence[Tuple[str, str, str]] = (),
) -> str:
    """SARIF 2.1.0 log for CI upload (GitHub code-scanning annotations).

    ``rule_meta`` is ``(code, summary, hint)`` per registered rule —
    passed in by the CLI so this module stays free of a registry import.
    Columns are converted to SARIF's 1-based convention.
    """
    rules: List[Dict[str, Any]] = [
        {
            "id": code,
            "shortDescription": {"text": summary},
            "help": {"text": hint},
        }
        for code, summary, hint in rule_meta
    ]
    results: List[Dict[str, Any]] = [
        {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
    ]
    log: Dict[str, Any] = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
