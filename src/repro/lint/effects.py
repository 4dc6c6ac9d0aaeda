"""Per-function effect summaries with call-graph fixed-point propagation.

This is the dataflow layer under the EFF rule family.  For every
function and method in the linted tree it builds an
:class:`EffectSummary`: which *domain* attributes (see
:mod:`repro.lint.contracts`) the function writes directly, whether it
performs an event-engine wake (clearing ``route_asleep`` /
``move_asleep``), and which of its writes carry an EFF002 wake
obligation.  A fixed-point pass then propagates summaries over the
resolved call graph, producing the *transitive* write/wake sets the
rules check against declared contracts.

Resolution is deliberately conservative in one specific way: a call the
engine cannot resolve — ``super()``, an untyped receiver, an external
library — contributes **no effects**.  Rules therefore report only
*definite* violations: a write the analyzer can prove happens, with no
wake it can prove reachable.  This keeps the rule family free of false positives on
idiomatic code at the cost of missing effects hidden behind dynamic
dispatch; the runtime invariant checks remain the backstop for those.

Resolved call shapes:

* ``self._m(...)`` and ``cls_local._m(...)`` via the class chain;
* ``x.m(...)`` where ``x`` is a parameter/local with an inferred class
  type (annotations, ``self.attr = param`` mining in ``__init__``,
  constructor calls, ``Sequence[T]`` element access, for-loop targets);
* ``x.detector.hook(...)`` / ``x.recovery.recover(...)`` / an alias of
  ``x.on_i_reset`` via the role table in
  :mod:`repro.lint.contracts` (applied as declared contracts);
* bare-name calls to same-module functions, imports and nested defs;
* mutator-method calls (``d.pop``, ``l.append`` …) on an attribute
  receiver, recorded as writes to that attribute rather than calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint import contracts
from repro.lint.module import ClassSummary, ModuleInfo, dotted_name

#: Method names treated as in-place mutations of their receiver.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "appendleft",
        "popleft",
        "rotate",
        "sort",
        "reverse",
    }
)

#: Annotation heads whose subscript names an element type we track.
_ELEM_CONTAINERS = frozenset(
    {
        "Sequence",
        "List",
        "list",
        "Tuple",
        "tuple",
        "Iterable",
        "Iterator",
        "Set",
        "FrozenSet",
        "Deque",
        "MutableSequence",
    }
)
_KEY_CONTAINERS = frozenset({"Dict", "dict", "Mapping", "MutableMapping"})
_WRAPPERS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


@dataclass(frozen=True)
class WriteSite:
    """One direct attribute write inside a function body."""

    attr: str
    line: int
    col: int
    #: ``assign`` / ``aug`` / ``subscript`` / ``mutcall`` / ``delete``.
    kind: str
    #: Augmented-assignment operator class name (``BitOr`` …) or None.
    op: Optional[str]
    #: Dotted/constant rendering of the assigned value when available.
    value_repr: Optional[str]
    #: Wake-obligation label from the contracts table, or None.
    obligation: Optional[str]


#: Origin of a transitive effect: (module name, qualname, line, col).
Origin = Tuple[str, str, int, int]


@dataclass
class EffectSummary:
    """Direct and (after propagation) transitive effects of one function."""

    qualname: str
    module_name: str
    class_name: Optional[str]
    lineno: int
    col: int
    #: Every direct attribute write; the rules filter to the domain.
    writes: List[WriteSite] = field(default_factory=list)
    #: Direct event-engine wake (``route_asleep``/``move_asleep`` = False).
    wakes: bool = False
    #: Resolved callee qualnames (call-graph edges).
    calls: List[str] = field(default_factory=list)
    #: Role-contract applications: (contract, call line, call col).
    role_calls: List[Tuple[contracts.RoleContract, int, int]] = field(
        default_factory=list
    )
    # ---- filled by the fixed-point pass -----------------------------
    trans_writes: Dict[str, Origin] = field(default_factory=dict)
    trans_wake: bool = False

    def domain_write_sites(self) -> List[WriteSite]:
        return [w for w in self.writes if w.attr in contracts.DOMAIN]


class _FuncRecord:
    """A function/method definition found in the linted tree."""

    def __init__(
        self,
        qualname: str,
        module: ModuleInfo,
        node: ast.FunctionDef,
        class_key: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_key = class_key


def _ann_head(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _iter_own_nodes(
    func: "Union[ast.FunctionDef, ast.AsyncFunctionDef]",
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class EffectIndex:
    """Cross-module function table, type oracle and summary store."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {
            m.module_name: m for m in modules
        }
        self.class_index: Dict[str, ClassSummary] = {}
        for module in modules:
            for cls in module.classes:
                self.class_index[cls.qualname] = cls
        self.functions: Dict[str, _FuncRecord] = {}
        self.summaries: Dict[str, EffectSummary] = {}
        #: (class key, attr) -> class key, mined from ``self.x = param``
        #: assignments in ``__init__`` where the parameter is annotated.
        self._init_attr_types: Dict[Tuple[str, str], str] = {}
        #: module name -> {local const name -> dotted value} for
        #: module-level aliases like ``_G = GPState.GENERATE``.
        self._const_aliases: Dict[str, Dict[str, str]] = {}
        self._attr_type_cache: Dict[Tuple[str, str], Optional[str]] = {}
        self._chain_cache: Dict[str, List[ClassSummary]] = {}
        for module in modules:
            self._collect(module)
        # _extract registers (and summarizes) nested defs as it meets
        # them, growing self.functions — iterate over a snapshot.
        for record in list(self.functions.values()):
            if record.qualname not in self.summaries:
                self.summaries[record.qualname] = _extract(self, record)
        self._propagate()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self, module: ModuleInfo) -> None:
        consts: Dict[str, str] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                value = dotted_name(stmt.value)
                if isinstance(target, ast.Name) and value is not None:
                    consts[target.id] = value
            if isinstance(stmt, ast.FunctionDef):
                key = f"{module.module_name}.{stmt.name}"
                self.functions[key] = _FuncRecord(key, module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                class_key = f"{module.module_name}.{stmt.name}"
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{class_key}.{item.name}"
                        self.functions[key] = _FuncRecord(
                            key, module, item, class_key
                        )
                        if item.name == "__init__":
                            self._mine_init_types(module, class_key, item)
        self._const_aliases[module.module_name] = consts

    def _mine_init_types(
        self, module: ModuleInfo, class_key: str, init: ast.FunctionDef
    ) -> None:
        params: Dict[str, str] = {}
        args = init.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is None:
                continue
            resolved = self.resolve_type(module, arg.annotation)[0]
            if resolved is not None:
                params[arg.arg] = resolved
        if not params:
            return
        for node in _iter_own_nodes(init):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in params
                ):
                    self._init_attr_types[(class_key, target.attr)] = params[
                        node.value.id
                    ]

    # ------------------------------------------------------------------
    # Type oracle
    # ------------------------------------------------------------------
    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """Class key for a (possibly dotted/imported) class name."""
        head, _, rest = name.partition(".")
        qualified = module.imports.get(head)
        if qualified is not None:
            candidate = qualified + ("." + rest if rest else "")
        else:
            candidate = name
        if candidate in self.class_index:
            return candidate
        local = f"{module.module_name}.{name}"
        if local in self.class_index:
            return local
        return None

    def resolve_type(
        self, module: ModuleInfo, ann: ast.expr
    ) -> Tuple[Optional[str], Optional[str]]:
        """(value class key, element class key) for an annotation."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None, None
        if isinstance(ann, ast.Subscript):
            head = _ann_head(ann.value)
            inner: ast.expr = ann.slice
            if head in _WRAPPERS:
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.resolve_type(module, inner)
            if head in _ELEM_CONTAINERS or head in _KEY_CONTAINERS:
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                elem = self.resolve_type(module, inner)[0]
                return None, elem
            return None, None
        name = dotted_name(ann)
        if name is None:
            return None, None
        return self.resolve_class(module, name), None

    def class_chain(self, class_key: str) -> List[ClassSummary]:
        """The class plus every resolvable ancestor (first-base walk)."""
        cached = self._chain_cache.get(class_key)
        if cached is not None:
            return cached
        chain: List[ClassSummary] = []
        seen: Set[str] = set()
        current = self.class_index.get(class_key)
        while current is not None and current.qualname not in seen:
            chain.append(current)
            seen.add(current.qualname)
            next_cls: Optional[ClassSummary] = None
            for base in current.bases:
                resolved = self.class_index.get(base) or self.class_index.get(
                    f"{current.module}.{base}"
                )
                if resolved is not None:
                    next_cls = resolved
                    break
            current = next_cls
        self._chain_cache[class_key] = chain
        return chain

    def attr_type(self, class_key: str, attr: str) -> Optional[str]:
        """Class key of ``<class_key instance>.<attr>``, if inferable."""
        cache_key = (class_key, attr)
        if cache_key in self._attr_type_cache:
            return self._attr_type_cache[cache_key]
        result: Optional[str] = None
        for cls in self.class_chain(class_key):
            module = self.modules.get(cls.module)
            if module is None:
                continue
            ann = module.attr_annotations.get((cls.name, attr))
            if ann is not None:
                result = self.resolve_type(module, ann)[0]
                break
            mined = self._init_attr_types.get((cls.qualname, attr))
            if mined is not None:
                result = mined
                break
        self._attr_type_cache[cache_key] = result
        return result

    def attr_elem_type(self, class_key: str, attr: str) -> Optional[str]:
        """Element/key class of a container-typed attribute."""
        for cls in self.class_chain(class_key):
            module = self.modules.get(cls.module)
            if module is None:
                continue
            ann = module.attr_annotations.get((cls.name, attr))
            if ann is not None:
                return self.resolve_type(module, ann)[1]
        return None

    def resolve_method(
        self, class_key: str, method: str
    ) -> Optional[str]:
        """Qualname of the definition ``method`` dispatches to."""
        for cls in self.class_chain(class_key):
            if method in cls.methods:
                return f"{cls.qualname}.{method}"
        return None

    def method_return(
        self, class_key: str, method: str
    ) -> Tuple[Optional[str], Optional[str]]:
        for cls in self.class_chain(class_key):
            if method not in cls.methods:
                continue
            module = self.modules.get(cls.module)
            if module is None:
                return None, None
            for stmt in cls.node.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == method
                    and stmt.returns is not None
                ):
                    return self.resolve_type(module, stmt.returns)
            return None, None
        return None, None

    def const_alias(self, module_name: str, name: str) -> Optional[str]:
        return self._const_aliases.get(module_name, {}).get(name)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        for summary in self.summaries.values():
            for site in summary.domain_write_sites():
                summary.trans_writes.setdefault(
                    site.attr,
                    (
                        summary.module_name,
                        summary.qualname,
                        site.line,
                        site.col,
                    ),
                )
            summary.trans_wake = summary.wakes
            for contract, line, col in summary.role_calls:
                if contract.wakes:
                    summary.trans_wake = True
                for attr in contract.writes:
                    summary.trans_writes.setdefault(
                        attr,
                        (summary.module_name, summary.qualname, line, col),
                    )
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for callee_name in summary.calls:
                    callee = self.summaries.get(callee_name)
                    if callee is None:
                        continue
                    for attr, origin in callee.trans_writes.items():
                        if attr not in summary.trans_writes:
                            summary.trans_writes[attr] = origin
                            changed = True
                    if callee.trans_wake and not summary.trans_wake:
                        summary.trans_wake = True
                        changed = True

    # ------------------------------------------------------------------
    def summary(self, qualname: str) -> Optional[EffectSummary]:
        return self.summaries.get(qualname)


class _Env:
    """Local binding environment of one function body."""

    def __init__(self) -> None:
        #: local name -> class key
        self.var_type: Dict[str, str] = {}
        #: local name -> element class key (for subscripts / iteration)
        self.var_elem: Dict[str, str] = {}
        #: local name -> attribute it aliases (``w = self.route_waiters``)
        self.var_attr: Dict[str, str] = {}
        #: local name -> role (``hook = self.detector.on_i_reset``)
        self.var_role: Dict[str, str] = {}
        #: local name -> same-class method it aliases
        self.var_method: Dict[str, str] = {}
        #: local name -> nested function qualname
        self.var_func: Dict[str, str] = {}
        #: local name -> dotted constant it aliases
        self.var_const: Dict[str, str] = {}


def _extract(index: EffectIndex, record: _FuncRecord) -> EffectSummary:
    """Direct effect summary of one function definition."""
    node = record.node
    summary = EffectSummary(
        qualname=record.qualname,
        module_name=record.module.module_name,
        class_name=(
            record.class_key.rsplit(".", 1)[1]
            if record.class_key is not None
            else None
        ),
        lineno=node.lineno,
        col=node.col_offset,
    )
    # Constructors initialise every field; their writes are definitionally
    # in-contract and they run before any waiter can exist, so they get
    # an empty summary (their parameter annotations are still mined for
    # the type oracle above).
    if node.name in ("__init__", "__new__", "__post_init__"):
        return summary
    env = _build_env(index, record)
    extractor = _Extractor(index, record, env, summary)
    for child in _iter_own_nodes(node):
        extractor.visit_node(child)
    return summary


def _build_env(index: EffectIndex, record: _FuncRecord) -> _Env:
    env = _Env()
    module = record.module
    node = record.node
    if record.class_key is not None:
        env.var_type["self"] = record.class_key
    args = node.args
    for arg in list(args.args) + list(args.kwonlyargs):
        if arg.annotation is None:
            continue
        value_t, elem_t = index.resolve_type(module, arg.annotation)
        if value_t is not None:
            env.var_type[arg.arg] = value_t
        if elem_t is not None:
            env.var_elem[arg.arg] = elem_t
    for child in _iter_own_nodes(node):
        if isinstance(child, ast.FunctionDef):
            # Nested def: callable through its bare name.
            nested_key = f"{record.qualname}.<locals>.{child.name}"
            if nested_key not in index.functions:
                nested = _FuncRecord(
                    nested_key, module, child, record.class_key
                )
                index.functions[nested_key] = nested
                index.summaries[nested_key] = _extract(index, nested)
            env.var_func[child.name] = nested_key
        elif isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            value_t, elem_t = index.resolve_type(module, child.annotation)
            if value_t is not None:
                env.var_type[child.target.id] = value_t
            if elem_t is not None:
                env.var_elem[child.target.id] = elem_t
        elif isinstance(child, ast.Assign):
            _bind_assign(index, record, env, child)
        elif isinstance(child, (ast.For, ast.AsyncFor)) and isinstance(
            child.target, ast.Name
        ):
            elem = _typ(index, record, env, child.iter)[1]
            if elem is not None:
                env.var_type[child.target.id] = elem
    return env


def _bind_assign(
    index: EffectIndex, record: _FuncRecord, env: _Env, node: ast.Assign
) -> None:
    value = node.value
    name_targets = [t for t in node.targets if isinstance(t, ast.Name)]
    attr_targets = [t for t in node.targets if isinstance(t, ast.Attribute)]
    for target in name_targets:
        # Chained through an attribute target: the name aliases it.
        for attr_target in attr_targets:
            env.var_attr[target.id] = attr_target.attr
        if isinstance(value, ast.Attribute):
            attr = value.attr
            env.var_attr.setdefault(target.id, attr)
            if attr in contracts.ATTR_ROLES:
                env.var_role[target.id] = contracts.ATTR_ROLES[attr]
            base = value.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and record.class_key is not None
            ):
                resolved = index.resolve_method(record.class_key, attr)
                if resolved is not None:
                    env.var_method[target.id] = attr
            receiver_t = _typ(index, record, env, base)[0]
            if receiver_t is not None:
                attr_t = index.attr_type(receiver_t, attr)
                if attr_t is not None:
                    env.var_type[target.id] = attr_t
                elem_t = index.attr_elem_type(receiver_t, attr)
                if elem_t is not None:
                    env.var_elem[target.id] = elem_t
        else:
            dotted = dotted_name(value)
            if dotted is not None:
                env.var_const[target.id] = dotted
            value_t, elem_t = _typ(index, record, env, value)
            if value_t is not None:
                env.var_type[target.id] = value_t
            if elem_t is not None:
                env.var_elem[target.id] = elem_t


def _typ(
    index: EffectIndex,
    record: _FuncRecord,
    env: _Env,
    expr: ast.expr,
) -> Tuple[Optional[str], Optional[str]]:
    """(class key, element class key) of an expression, best effort."""
    if isinstance(expr, ast.Name):
        return env.var_type.get(expr.id), env.var_elem.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base_t = _typ(index, record, env, expr.value)[0]
        if base_t is None:
            return None, None
        return (
            index.attr_type(base_t, expr.attr),
            index.attr_elem_type(base_t, expr.attr),
        )
    if isinstance(expr, ast.Subscript):
        return _typ(index, record, env, expr.value)[1], None
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            class_key = index.resolve_class(record.module, func.id)
            if class_key is not None:
                return class_key, None
            target = f"{record.module.module_name}.{func.id}"
            if target in index.functions:
                returns = index.functions[target].node.returns
                if returns is not None:
                    return index.resolve_type(record.module, returns)
            imported = record.module.imports.get(func.id)
            if imported is not None and imported in index.functions:
                rec = index.functions[imported]
                if rec.node.returns is not None:
                    return index.resolve_type(rec.module, rec.node.returns)
        elif isinstance(func, ast.Attribute):
            receiver_t = _typ(index, record, env, func.value)[0]
            if receiver_t is not None:
                return index.method_return(receiver_t, func.attr)
        return None, None
    return None, None


def _value_repr(
    index: EffectIndex, record: _FuncRecord, env: _Env, value: ast.expr
) -> Optional[str]:
    if isinstance(value, ast.Constant):
        return repr(value.value)
    dotted = dotted_name(value)
    if dotted is None:
        return None
    if "." not in dotted:
        local = env.var_const.get(dotted)
        if local is not None:
            return local
        module_const = index.const_alias(record.module.module_name, dotted)
        if module_const is not None:
            return module_const
    return dotted


class _Extractor:
    """Single pass over a function body filling its EffectSummary."""

    def __init__(
        self,
        index: EffectIndex,
        record: _FuncRecord,
        env: _Env,
        summary: EffectSummary,
    ) -> None:
        self.index = index
        self.record = record
        self.env = env
        self.summary = summary

    # -- writes --------------------------------------------------------
    def _target_attr(self, target: ast.expr) -> Optional[Tuple[str, str]]:
        """(attr, kind) written by an assignment target, if any."""
        if isinstance(target, ast.Attribute):
            return target.attr, "assign"
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return base.attr, "subscript"
            if isinstance(base, ast.Name):
                aliased = self.env.var_attr.get(base.id)
                if aliased is not None:
                    return aliased, "subscript"
        return None

    def _record_write(
        self,
        attr: str,
        node: ast.AST,
        kind: str,
        op: Optional[str],
        value: Optional[ast.expr],
    ) -> None:
        value_repr = (
            _value_repr(self.index, self.record, self.env, value)
            if value is not None
            else None
        )
        obligation = contracts.classify_wake_obligation(
            attr, kind, op, value_repr
        )
        line = getattr(node, "lineno", self.summary.lineno)
        col = getattr(node, "col_offset", 0)
        self.summary.writes.append(
            WriteSite(attr, line, col, kind, op, value_repr, obligation)
        )
        if (
            attr in contracts.WAKE_WRITE_ATTRS
            and kind == "assign"
            and value_repr == "False"
        ):
            self.summary.wakes = True

    # -- calls ---------------------------------------------------------
    def _role_for_receiver(self, receiver: ast.expr) -> Optional[str]:
        if isinstance(receiver, ast.Attribute):
            return contracts.ATTR_ROLES.get(receiver.attr)
        if isinstance(receiver, ast.Name):
            return self.env.var_role.get(receiver.id)
        return None

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._handle_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._handle_attr_call(node, func)

    def _resolve_import(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        resolved = self.record.module.imports.get(head, head)
        return resolved + ("." + rest if rest else "")

    def _handle_name_call(self, node: ast.Call, name: str) -> None:
        env = self.env
        summary = self.summary
        role = env.var_role.get(name)
        if role is not None:
            contract = contracts.role_contract(role, None)
            if contract is not None:
                summary.role_calls.append(
                    (contract, node.lineno, node.col_offset)
                )
                return
        if name in env.var_func:
            summary.calls.append(env.var_func[name])
            return
        if name in env.var_method and self.record.class_key is not None:
            resolved = self.index.resolve_method(
                self.record.class_key, env.var_method[name]
            )
            if resolved is not None:
                summary.calls.append(resolved)
                return
        class_key = self.index.resolve_class(self.record.module, name)
        if class_key is not None:
            # Constructor: __init__ effects are definitionally in
            # contract (see _extract).
            return
        local = f"{self.record.module.module_name}.{name}"
        if local in self.index.functions:
            summary.calls.append(local)
            return
        imported = self.record.module.imports.get(name)
        if imported is not None and imported in self.index.functions:
            summary.calls.append(imported)

    def _handle_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        summary = self.summary
        method = func.attr
        receiver = func.value
        # Mutator call on an attribute (or an alias of one) == a write.
        if method in MUTATOR_METHODS:
            attr: Optional[str] = None
            if isinstance(receiver, ast.Attribute):
                attr = receiver.attr
            elif isinstance(receiver, ast.Name):
                attr = self.env.var_attr.get(receiver.id)
            if attr is not None:
                self._record_write(attr, node, "mutcall", None, None)
                return
        role = self._role_for_receiver(receiver)
        if role is not None:
            contract = contracts.role_contract(role, method)
            if contract is not None:
                summary.role_calls.append(
                    (contract, node.lineno, node.col_offset)
                )
            return
        receiver_t = _typ(self.index, self.record, self.env, receiver)[0]
        if receiver_t is not None:
            resolved = self.index.resolve_method(receiver_t, method)
            if resolved is not None:
                summary.calls.append(resolved)
                return
        # Module-level function through an import (heapq.heappush, ...)
        dotted = dotted_name(func)
        if dotted is not None:
            qualified = self._resolve_import(dotted)
            if qualified in self.index.functions:
                summary.calls.append(qualified)

    # -- dispatch ------------------------------------------------------
    def visit_node(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._visit_target(target, node.value)
        elif isinstance(node, ast.AugAssign):
            written = self._target_attr(node.target)
            if written is not None:
                attr, kind = written
                kind = "aug" if kind == "assign" else kind
                self._record_write(
                    attr, node, kind, type(node.op).__name__, node.value
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            written = self._target_attr(node.target)
            if written is not None:
                attr, kind = written
                self._record_write(attr, node, kind, None, node.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                written = self._target_attr(target)
                if written is not None:
                    attr, _ = written
                    self._record_write(attr, node, "delete", None, None)
        elif isinstance(node, ast.Call):
            self._handle_call(node)

    def _visit_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element, value)
            return
        written = self._target_attr(target)
        if written is not None:
            attr, kind = written
            self._record_write(attr, target, kind, None, value)


def build_effect_index(modules: Sequence[ModuleInfo]) -> EffectIndex:
    """Build (extract + propagate) the effect index for a module set."""
    return EffectIndex(modules)
