"""Span recorder and run-time instrumentation, all from outside ``src/``.

Every instrumented callable is named by a dotted path
(``"package.module:Attr.sub"``) and resolved when the tracer is
installed, so nothing here imports a symbol a later refactor may move.
A path that no longer resolves is recorded in :attr:`Tracer.unresolved`,
its probe is marked missing (the per-layer metrics that need it read
``null``), and the run carries on.

Two wrapper kinds keep the enabled cost proportionate:

* **layer** probes sit on layer entry functions (tens to thousands of
  calls per pass).  They push a frame, so each records calls, total
  seconds and *self* seconds (total minus the time its traced callees
  took), and appends a span ``[name, start, end, parent, rep]``.
* **hot** probes sit on per-event callables (detector hooks, the
  ground-truth analyzer, traffic draws — up to millions of calls per
  pass).  They record calls and total seconds only.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Spans kept in memory per run; later ones are tallied but not listed
#: (``campaign-replay`` makes ~2k spans per pass).
SPAN_CAP = 20_000

#: Probes whose top-most spans are "simulation" as opposed to campaign
#: bookkeeping (``campaign.overhead_frac`` is the rest of a pass).
SIMULATION_STEMS = frozenset(
    {"network.build", "network.run", "network.batch.build", "network.batch.run"}
)

PostFn = Callable[["Tracer", Tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Probe:
    """One instrumentation point: a stem, its dotted targets, its kind."""

    stem: str
    targets: Sequence[str]
    #: Per-event callable: count and total seconds only, no frame.
    hot: bool = False
    #: Layer probes only: harvests counts after the wrapped call returns.
    post: Optional[PostFn] = None


def resolve(dotted: str) -> Tuple[Any, str]:
    """``"pkg.mod:A.b"`` -> (owner object, attribute name).

    Raises ``ImportError``/``AttributeError`` when the path is gone.
    """
    module_name, _, path = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    getattr(owner, parts[-1])  # existence check
    return owner, parts[-1]


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Self seconds per span: duration minus its direct children's.

    ``spans`` are ``[name, start, end, parent, ...]`` rows with
    ``parent`` an index into the same list (or ``None``/-1 for roots) —
    the shape written to ``trace-<workload>.json``.
    """
    out = [row[2] - row[1] for row in spans]
    for row in spans:
        parent = row[3]
        if parent is not None and parent >= 0:
            out[parent] -= row[2] - row[1]
    return out


class Tracer:
    """Collects spans and tallies for one workload run."""

    def __init__(self, workload: str, probes: Sequence[Probe]) -> None:
        self.workload = workload
        self.probes = list(probes)
        #: ``[name, start, end, parent_index, rep]`` rows.
        self.spans: List[List[Any]] = []
        self.spans_dropped = 0
        #: Dotted names (or hook names) that did not resolve.
        self.unresolved: List[str] = []
        #: Probe stems with at least one unresolved target.
        self.missing: Set[str] = set()
        self.rep = -1
        #: rep -> stem -> [calls, total seconds, self seconds], for the
        #: timed pass and, separately, for the set-up that preceded it.
        self.tallies: Dict[int, Dict[str, List[float]]] = {}
        self.setup_tallies: Dict[int, Dict[str, List[float]]] = {}
        #: rep -> key -> accumulated number (counts harvested by ``post``)
        self.values: Dict[int, Dict[str, float]] = {}
        self._tally: Dict[str, List[float]] = {}
        self._value: Dict[str, float] = {}
        # Open frames: [stem, start, child seconds, span index, top-sim]
        self._stack: List[List[Any]] = []
        self._sim_depth = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self._resolved: Optional[List[Tuple[Probe, Any, str, Any]]] = None

    # ------------------------------------------------------------------
    # Rep bookkeeping
    # ------------------------------------------------------------------
    def begin_rep(self, rep: int) -> None:
        """Start rep ``rep``; tallies go to its set-up bucket until
        :meth:`begin_pass`."""
        self.rep = rep
        self._tally = self.setup_tallies.setdefault(rep, {})
        self._value = self.values.setdefault(rep, {})

    def begin_pass(self) -> List[Any]:
        """Switch to the pass bucket and open the root ``pass`` span."""
        self._tally = self.tallies.setdefault(self.rep, {})
        return self.enter("pass")

    def add(self, key: str, amount: float) -> None:
        """Accumulate a harvested count for the current rep."""
        self._value[key] = self._value.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def enter(self, stem: str) -> List[Any]:
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([stem, 0.0, 0.0, parent, self.rep])
        else:
            self.spans_dropped += 1
        top_sim = False
        if stem in SIMULATION_STEMS:
            top_sim = self._sim_depth == 0
            self._sim_depth += 1
        frame = [stem, 0.0, 0.0, index, top_sim]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: List[Any]) -> None:
        end = perf_counter()
        stem, start, child, index, top_sim = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        tally = self._tally.get(stem)
        if tally is None:
            tally = self._tally[stem] = [0, 0.0, 0.0]
        tally[0] += 1
        tally[1] += duration
        tally[2] += duration - child
        if index >= 0:
            row = self.spans[index]
            row[1] = start
            row[2] = end
        if stem in SIMULATION_STEMS:
            self._sim_depth -= 1
            # Only what the timed pass contains: a simulator built as
            # set-up, before the pass span opens, is not pass time.
            if top_sim and self._stack and self._stack[0][0] == "pass":
                self.add("simulation.top_s", duration)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap_layer(
        self, stem: str, fn: Callable[..., Any], post: Optional[PostFn] = None
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def wrap_hot(self, stem: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tally = tracer._tally.get(stem)
                if tally is None:
                    tally = tracer._tally[stem] = [0, 0.0, 0.0]
                tally[0] += 1
                tally[1] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _resolve_all(self) -> List[Tuple[Probe, Any, str, Any]]:
        """Resolve every target once; note the ones that are gone."""
        resolved = []
        for probe in self.probes:
            for dotted in probe.targets:
                try:
                    owner, attr = resolve(dotted)
                except (ImportError, AttributeError) as exc:
                    self.note_unresolved(probe.stem, dotted, exc)
                    continue
                raw = (
                    vars(owner).get(attr, getattr(owner, attr))
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                resolved.append((probe, owner, attr, raw))
        return resolved

    def note_unresolved(self, stem: str, name: str, exc: Exception) -> None:
        if name not in self.unresolved:
            self.unresolved.append(name)
            print(
                f"note: {name} did not resolve ({type(exc).__name__}: {exc}); "
                f"per-layer metrics that need probe '{stem}' read null"
            )
        self.missing.add(stem)

    def install(self) -> None:
        """Patch every resolvable target with its wrapper."""
        if self._resolved is None:
            self._resolved = self._resolve_all()
        for probe, owner, attr, raw in self._resolved:
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = (
                self.wrap_hot(probe.stem, fn)
                if probe.hot
                else self.wrap_layer(probe.stem, fn, probe.post)
            )
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def span_rows(self) -> List[Dict[str, Any]]:
        """Spans in the trace-file shape (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent if parent >= 0 else None,
                "workload": self.workload,
                "rep": rep,
            }
            for name, start, end, parent, rep in self.spans
        ]
