"""The built-in rule: DET003, hash-ordered iteration.

A rule is a small class — code, summary, autofix hint, scope, and a
``check`` generator over one :class:`ModuleInfo`.  To add one: subclass
:class:`Rule`, decorate with :func:`register_rule`, done — the CLI, CI
job and fixture tests pick it up from the registry.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.registry import Rule, register_rule
from repro.lint.typeinfo import FunctionEnv
from repro.network.kernel import PHASE_METHODS


def _has_keys_call(expr: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "keys"
        for n in ast.walk(expr)
    )


@register_rule
class SetIterationRule(Rule):
    code = "DET003"
    summary = (
        "no iteration over sets / dict.keys() of non-int keys in "
        "simulation-order-sensitive modules, nor over any set in a "
        "cycle phase"
    )
    hint = (
        "wrap the iterable in sorted(...), or use an insertion-ordered "
        "Dict[Elem, None] in place of the set"
    )
    scopes = ("repro.network", "repro.core", "repro.analysis", "repro.campaign")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, None)

    def _check_scope(
        self, module: ModuleInfo, root: ast.AST, class_name: Optional[str]
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, ast.ClassDef):
                yield from self._check_scope(module, node, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, class_name)

    def _check_function(
        self,
        module: ModuleInfo,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: Optional[str],
    ) -> Iterator[Finding]:
        # An int set's order is not randomized, but it is the slot layout
        # its add/discard history left, which differs across CPython
        # versions; a cycle phase's visit order feeds every digest.
        phase = func.name in PHASE_METHODS
        env = FunctionEnv(module, func, class_name)
        for node in ast.walk(func):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                verdict = env.classify(expr)
                if verdict is None:
                    continue
                if verdict.container == "set" and verdict.hash_ordered:
                    yield self.finding(
                        module,
                        expr.lineno,
                        expr.col_offset,
                        "iteration over a set of non-int elements is "
                        "hash-ordered (PYTHONHASHSEED-dependent)",
                    )
                elif verdict.container == "set" and phase:
                    yield self.finding(
                        module,
                        expr.lineno,
                        expr.col_offset,
                        f"iteration over a set in cycle phase {func.name}: "
                        "the slot layout differs across CPython versions",
                    )
                elif (
                    verdict.container == "dict_keys"
                    and verdict.hash_ordered
                    and _has_keys_call(expr)
                ):
                    yield self.finding(
                        module,
                        expr.lineno,
                        expr.col_offset,
                        "iteration over .keys() of a non-int-keyed dict; "
                        "iterate the dict directly or sort",
                    )
