"""Lint driver: file discovery and rule dispatch.

The engine parses every target file into a :class:`ModuleInfo`, then
runs each registered rule over each module it applies to, dropping
findings covered by inline ``# repro-lint: disable=`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo, module_name_for
from repro.lint.registry import Rule, all_rules


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _discover(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _load(path: Path, module_name: Optional[str]) -> Union[ModuleInfo, Finding]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return Finding(str(path), 1, 0, "SYNTAX", f"cannot read file: {exc}")
    name = module_name if module_name is not None else module_name_for(path)
    try:
        return ModuleInfo(str(path), source, name)
    except SyntaxError as exc:
        return Finding(
            str(path), exc.lineno or 1, 0, "SYNTAX", f"syntax error: {exc.msg}"
        )


def _run_rules(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule]
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for rule in rules:
            if not rule.applies_to(module.module_name):
                continue
            for finding in rule.check(module):
                if not module.is_suppressed(finding.code, finding.line):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def run_lint(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint files and directories; directories are walked for ``*.py``."""
    files = _discover(paths)
    modules: List[ModuleInfo] = []
    result = LintResult(files_checked=len(files))
    for path in files:
        loaded = _load(path, None)
        if isinstance(loaded, Finding):
            result.findings.append(loaded)
        else:
            modules.append(loaded)
    result.findings.extend(_run_rules(modules, rules or all_rules()))
    return result


def lint_file(
    path: Union[str, Path],
    module_name: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint a single file, optionally overriding its module name.

    The override lets fixture tests exercise scope-restricted rules on
    files living outside the package tree (e.g. a snippet checked as if
    it were ``repro.network.example``).
    """
    loaded = _load(Path(path), module_name)
    if isinstance(loaded, Finding):
        return LintResult(findings=[loaded], files_checked=1)
    return LintResult(
        findings=_run_rules([loaded], rules or all_rules()),
        files_checked=1,
    )
