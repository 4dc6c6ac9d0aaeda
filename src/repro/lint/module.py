"""Per-module analysis context shared by every rule.

A :class:`ModuleInfo` owns the parsed AST plus the cheap semantic maps
rules keep needing: inline ``# repro-lint: disable=...`` suppressions,
same-module function return annotations, and ``self.attr`` annotations
per class.  Building
them once per file keeps each rule a small, focused AST visitor.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Marker introducing an inline suppression comment.
DISABLE_PREFIX = "repro-lint:"


def _parse_disable_comment(comment: str) -> Tuple[Optional[str], Set[str]]:
    """Parse one comment body; returns (kind, codes) or (None, empty).

    ``kind`` is ``"line"`` for ``disable=`` and ``"file"`` for
    ``disable-file=``.
    """
    body = comment.lstrip("#").strip()
    if not body.startswith(DISABLE_PREFIX):
        return None, set()
    body = body[len(DISABLE_PREFIX):].strip()
    for kind, prefix in (("file", "disable-file="), ("line", "disable=")):
        if body.startswith(prefix):
            # Anything after " - " is a free-form rationale (encouraged
            # for waivers: say *why* the finding does not apply here).
            code_list = body[len(prefix):].split(" - ", 1)[0]
            codes = {c.strip() for c in code_list.split(",") if c.strip()}
            return kind, codes
    return None, set()


def _collect_disables(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Map line -> suppressed codes, plus file-wide suppressed codes.

    A trailing comment suppresses its own line; a comment alone on a line
    suppresses the next line as well (so multi-line statements can carry
    the disable above them).
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return per_line, file_wide
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        kind, codes = _parse_disable_comment(tok.string)
        if kind == "file":
            file_wide |= codes
        elif kind == "line":
            row = tok.start[0]
            own_line = lines[row - 1][: tok.start[1]].strip() == ""
            per_line.setdefault(row, set()).update(codes)
            if own_line:
                per_line.setdefault(row + 1, set()).update(codes)
    return per_line, file_wide


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None for other exprs)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleInfo:
    """Parsed module plus the semantic maps rules share."""

    def __init__(self, path: str, source: str, module_name: str) -> None:
        self.path = path
        self.source = source
        self.module_name = module_name
        self.tree = ast.parse(source, filename=path)
        self.line_disables, self.file_disables = _collect_disables(source)

        #: bare function/method name -> return annotation AST (last wins).
        self.func_returns: Dict[str, ast.expr] = {}
        #: (class name, attribute) -> annotation AST from ``self.x: T``
        #: statements and class-body annotations.
        self.attr_annotations: Dict[Tuple[str, str], ast.expr] = {}
        self._scan()

    def _scan(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    self.func_returns[node.name] = node.returns
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._scan_class_annotations(node)

    def _scan_class_annotations(self, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.attr_annotations[(cls.name, stmt.target.id)] = (
                    stmt.annotation
                )
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                self.attr_annotations[(cls.name, node.target.attr)] = (
                    node.annotation
                )

    # ------------------------------------------------------------------
    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether an inline or file-wide disable covers this finding."""
        if code in self.file_disables:
            return True
        return code in self.line_disables.get(line, set())


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from the package layout on disk."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem
