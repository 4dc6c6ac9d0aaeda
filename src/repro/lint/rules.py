"""Built-in rules: determinism (DET*) and protocol (PROTO*) checks.

Each rule is a small class — code, summary, autofix hint, scope, and a
``check`` generator over one :class:`ModuleInfo`.  Rules needing
cross-file facts (PROTO001) read ``module.class_index``, the engine-built
map of every linted class.  To add a rule: subclass :class:`Rule`,
decorate with :func:`register_rule`, done — the CLI, CI job and fixture
tests pick it up from the registry.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.findings import Finding
from repro.lint.module import ClassSummary, ModuleInfo, dotted_name
from repro.lint.registry import Rule, register_rule
from repro.lint.typeinfo import FunctionEnv


def _resolve(module: ModuleInfo, name: str) -> str:
    """Qualify a dotted name through the module's import table."""
    head, _, rest = name.partition(".")
    resolved = module.imports.get(head, head)
    return resolved + ("." + rest if rest else "")


# ----------------------------------------------------------------------
# DET001 — wall-clock reads in hot paths
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class WallClockRule(Rule):
    code = "DET001"
    summary = "no wall-clock reads in simulation hot paths"
    hint = (
        "derive timing from the simulation cycle counter; for engine "
        "telemetry use time.perf_counter(), which is allowed"
    )
    scopes = ("repro.network", "repro.core", "repro.campaign")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "datetime",
            ):
                for alias in node.names:
                    qual = f"{node.module}.{alias.name}"
                    if qual in _WALL_CLOCK or qual == "datetime.datetime":
                        if qual in _WALL_CLOCK:
                            yield self.finding(
                                module,
                                node.lineno,
                                node.col_offset,
                                f"import of wall-clock function {qual}",
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if _resolve(module, name) in _WALL_CLOCK:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call {name}() in a hot-path module",
                    )


# ----------------------------------------------------------------------
# DET002 — global / unseeded randomness
# ----------------------------------------------------------------------
_RANDOM_OK = {"Random", "SystemRandom"}


@register_rule
class GlobalRandomRule(Rule):
    code = "DET002"
    summary = "no module-level random use outside injected RNGs"
    hint = (
        "thread a seeded random.Random instance through the call chain "
        "instead of the module-level API"
    )
    scopes = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _RANDOM_OK:
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "import of module-level random."
                            f"{alias.name} (global RNG state)",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None or "." not in name:
                    continue
                resolved = _resolve(module, name)
                if (
                    resolved.startswith("random.")
                    and resolved.count(".") == 1
                    and resolved.split(".")[1] not in _RANDOM_OK
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"module-level {name}() call uses the global RNG",
                    )


# ----------------------------------------------------------------------
# DET003 — hash-ordered iteration in simulation-order-sensitive modules
# ----------------------------------------------------------------------
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
        "simulation-order-sensitive modules"
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
        func: ast.AST,
        class_name: Optional[str],
    ) -> Iterator[Finding]:
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
                if verdict is None or not verdict.hash_ordered:
                    continue
                if verdict.container == "set":
                    yield self.finding(
                        module,
                        expr.lineno,
                        expr.col_offset,
                        "iteration over a set of non-int elements is "
                        "hash-ordered (PYTHONHASHSEED-dependent)",
                    )
                elif verdict.container == "dict_keys" and _has_keys_call(expr):
                    yield self.finding(
                        module,
                        expr.lineno,
                        expr.col_offset,
                        "iteration over .keys() of a non-int-keyed dict; "
                        "iterate the dict directly or sort",
                    )


# ----------------------------------------------------------------------
# PROTO001 — detector subclasses must honour the event-engine contract
# ----------------------------------------------------------------------
_DETECTOR_ROOT = "repro.core.detector.DeadlockDetector"


def detector_chain(
    cls: ClassSummary, index: Dict[str, ClassSummary]
) -> Optional[List[ClassSummary]]:
    """Ancestry up to (excluding) DeadlockDetector, or None."""
    chain: List[ClassSummary] = [cls]
    current = cls
    seen = {cls.qualname}
    while True:
        next_cls: Optional[ClassSummary] = None
        for base in current.bases:
            if base == _DETECTOR_ROOT or base.endswith(".DeadlockDetector"):
                return chain
            # Bare names are same-module bases (imports are already
            # qualified by ClassSummary).
            resolved = index.get(base) or index.get(
                f"{current.module}.{base}"
            )
            if resolved is not None and resolved.qualname not in seen:
                next_cls = resolved
                break
        if next_cls is None:
            return None
        chain.append(next_cls)
        seen.add(next_cls.qualname)
        current = next_cls


@register_rule
class DetectorContractRule(Rule):
    code = "PROTO001"
    summary = "Detector subclasses must implement the full event-engine surface"
    hint = (
        "declare deadline() or override blocked_deadline() (or set "
        "can_sleep_blocked = False) "
        "whenever on_blocked_attempt is overridden; set "
        "needs_periodic_check = True next to periodic_check; set "
        "has_probe_phase = True next to probe_phase (and vice versa); "
        "give every concrete detector a name"
    )
    scopes = ()  # detectors may live anywhere

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        index: Dict[str, ClassSummary] = getattr(module, "class_index", {})
        for cls in module.classes:
            chain = detector_chain(cls, index)
            if chain is None:
                continue
            yield from self._check_class(module, cls, chain)

    @staticmethod
    def _effective_attr(chain: List[ClassSummary], name: str) -> object:
        for cls in chain:  # most-derived first
            if name in cls.class_attrs:
                return cls.class_attrs[name]
        return None

    @staticmethod
    def _defines(chain: List[ClassSummary], name: str) -> bool:
        return any(
            name in cls.methods or name in cls.class_attrs for cls in chain
        )

    def _check_class(
        self, module: ModuleInfo, cls: ClassSummary, chain: List[ClassSummary]
    ) -> Iterator[Finding]:
        overrides_blocked = "on_blocked_attempt" in cls.methods
        if overrides_blocked:
            # The base blocked_deadline reads the class's declared deadline.
            has_deadline = self._defines(
                chain, "blocked_deadline"
            ) or self._defines(chain, "deadline")
            sleeps = self._effective_attr(chain, "can_sleep_blocked")
            if not has_deadline and sleeps is not False:
                yield self.finding(
                    module,
                    cls.lineno,
                    cls.col,
                    f"{cls.name} overrides on_blocked_attempt but neither "
                    "declares a deadline, overrides blocked_deadline nor sets "
                    "can_sleep_blocked = False; the event engine would "
                    "sleep through its detections",
                )
        if "periodic_check" in cls.methods:
            if self._effective_attr(chain, "needs_periodic_check") is not True:
                yield self.finding(
                    module,
                    cls.lineno,
                    cls.col,
                    f"{cls.name} overrides periodic_check without setting "
                    "needs_periodic_check = True; the simulator will "
                    "never call it",
                )
        if "probe_phase" in cls.methods:
            if self._effective_attr(chain, "has_probe_phase") is not True:
                yield self.finding(
                    module,
                    cls.lineno,
                    cls.col,
                    f"{cls.name} overrides probe_phase without setting "
                    "has_probe_phase = True; the simulator will never "
                    "run its probe phase",
                )
        elif cls.class_attrs.get("has_probe_phase") is True and not any(
            "probe_phase" in c.methods for c in chain
        ):
            yield self.finding(
                module,
                cls.lineno,
                cls.col,
                f"{cls.name} sets has_probe_phase = True but neither it "
                "nor its bases override probe_phase; the probe phase "
                "would run the base no-op every cycle",
            )
        if (
            overrides_blocked
            or "periodic_check" in cls.methods
            or "probe_phase" in cls.methods
        ) and not self._defines(chain, "name"):
            yield self.finding(
                module,
                cls.lineno,
                cls.col,
                f"concrete detector {cls.name} does not define a name",
            )

