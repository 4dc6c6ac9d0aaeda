"""Bounded model checker: exhaustive enumeration of small configurations.

:func:`explore` runs a breadth-first search over the reachable quotient
state space of one :class:`~repro.verify.scenario.VerifyCase`.  States
are keyed by the canonical time-relative encoding of
:mod:`repro.verify.encode`; successor generation replays the state's
choice trace into a fresh :class:`~repro.verify.driver.Instance` and
enumerates every per-cycle choice vector with the odometer of
:mod:`repro.verify.choices`.

Checked properties, per reachable state:

* **safety** — the simulator's own ``check_invariants`` plus the
  verification-only structural checks (probe-storm bound, selective
  waiter refcounts) and the G/P rule conformance audit of
  :class:`~repro.verify.recording.RecordingNDM`.  Any violation refutes
  immediately with the (BFS-shortest) trace reaching it.
* **0-false-negatives** — formulated as a liveness property on the
  finite quotient: for each message id, restrict the state graph to
  states where the id is oracle-deadlocked yet unmarked; a cycle in that
  subgraph is an infinite run on which the deadlock persists undetected
  forever — a false negative — and is reported as a stem + loop lasso.
  When every such subgraph is acyclic the property is *proved*, and the
  longest path through the subgraphs is the measured worst-case
  detection bound (``max_undetected_span`` cycles).

The static dependency oracle (:mod:`repro.verify.oracle`) provides an
independent second opinion on fault-free scenarios: a reachable deadlock
in a statically-deadlock-free scenario is an internal contradiction and
aborts the run rather than producing a verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.verify.choices import ChoiceError, next_vector
from repro.verify.driver import Instance, Trace
from repro.verify.encode import behavioural_digest, digest, encode_state
from repro.verify.oracle import statically_deadlock_free
from repro.verify.scenario import VerifyCase

ChoiceVector = Tuple[int, ...]


class EncodingUnsound(RuntimeError):
    """Two traces with equal encodings diverged — the quotient is wrong."""


class OracleContradiction(RuntimeError):
    """Enumeration reached a deadlock the static oracle ruled out."""


@dataclass
class Violation:
    """One refuted invariant with a replayable counterexample."""

    #: ``gp-rule`` | ``structure`` | ``probe-storm`` | ``waiter`` |
    #: ``choice`` | ``false-negative``
    kind: str
    detail: str
    #: Choice vectors from cycle 0 up to (and including) the violation.
    trace: Trace
    #: For liveness refutations: the repeatable suffix (lasso loop).
    loop: Optional[Trace] = None
    #: For false negatives: the message that stays undetected.
    message_id: Optional[int] = None

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Violation":
        loop = payload.get("loop")
        return cls(
            kind=str(payload["kind"]),
            detail=str(payload.get("detail", "")),
            trace=tuple(tuple(int(c) for c in v) for v in payload["trace"]),
            loop=(
                None
                if loop is None
                else tuple(tuple(int(c) for c in v) for v in loop)
            ),
            message_id=(
                None
                if payload.get("message_id") is None
                else int(payload["message_id"])
            ),
        )


@dataclass
class Verdict:
    """The checker's result for one (scenario, mechanism, promotion) cell."""

    case: VerifyCase
    #: ``proved`` | ``refuted`` | ``inconclusive``
    verdict: str
    states: int
    edges: int
    max_depth: int
    #: Longest consecutive undetected-deadlock run, in cycles (proved only).
    max_undetected_span: int
    statically_deadlock_free: bool
    #: Why an ``inconclusive`` run stopped (cap name), empty otherwise.
    stopped_on: str = ""
    violation: Optional[Violation] = None

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.case.label(),
            "scenario": self.case.scenario.name,
            "fault_class": self.case.scenario.fault_class,
            "mechanism": self.case.mechanism,
            "promotion": self.case.promotion,
            "verdict": self.verdict,
            "states": self.states,
            "edges": self.edges,
            "max_depth": self.max_depth,
            "max_undetected_span": self.max_undetected_span,
            "statically_deadlock_free": self.statically_deadlock_free,
            "stopped_on": self.stopped_on,
            "violation": (
                None if self.violation is None else asdict(self.violation)
            ),
            "case": asdict(self.case),
        }


@dataclass
class _StateInfo:
    state_id: int
    parent: int
    vector: ChoiceVector
    depth: int
    bad: FrozenSet[int]
    terminal: bool
    successors: List[Tuple[ChoiceVector, int]] = field(default_factory=list)


class _Explorer:
    def __init__(
        self,
        case: VerifyCase,
        max_states: int,
        max_cycles: int,
        collision_checks: int,
    ) -> None:
        self.case = case
        self.max_states = max_states
        self.max_cycles = max_cycles
        self.collision_budget = collision_checks
        self.states: List[_StateInfo] = []
        self.ids: Dict[str, int] = {}
        self.edges = 0
        self.static_free = statically_deadlock_free(case)

    # ------------------------------------------------------------------
    def trace_to(self, state_id: int) -> Trace:
        vectors: List[ChoiceVector] = []
        info = self.states[state_id]
        while info.parent >= 0:
            vectors.append(info.vector)
            info = self.states[info.parent]
        vectors.reverse()
        return tuple(vectors)

    def _examine(self, inst: Instance, trace: Trace) -> FrozenSet[int]:
        """Structural checks + oracle for a freshly reached state."""
        inst.check_structure()
        knot = inst.oracle_deadlocked()
        if knot and self.static_free and not self.case.scenario.faults:
            raise OracleContradiction(
                f"{self.case.label()}: messages {sorted(knot)} deadlocked "
                "after trace "
                f"{[list(v) for v in trace]} but the channel-dependency "
                "graph is acyclic"
            )
        return inst.undetected_deadlocked()

    def _cross_check(self, stored_id: int, new_trace: Trace) -> None:
        """Re-expand a dedupe hit: equal encodings must behave equally."""
        if self.collision_budget <= 0:
            return
        self.collision_budget -= 1
        a = Instance(self.case)
        a.run_trace(self.trace_to(stored_id))
        b = Instance(self.case)
        b.run_trace(new_trace)
        for probe in range(2):
            log_a = a.step_cycle()
            log_b = b.step_cycle()
            if (
                log_a.domains != log_b.domains
                or behavioural_digest(a) != behavioural_digest(b)
            ):
                raise EncodingUnsound(
                    f"{self.case.label()}: states with equal encodings "
                    f"diverged {probe + 1} cycle(s) after the collision "
                    f"(stored state {stored_id})"
                )

    # ------------------------------------------------------------------
    def run(self) -> Verdict:
        root = Instance(self.case)
        try:
            bad = self._examine(root, ())
        except AssertionError as exc:
            return self._refute(classify_violation(exc), str(exc), ())
        self.ids[digest(encode_state(root))] = 0
        self.states.append(
            _StateInfo(0, -1, (), 0, bad, root.all_delivered())
        )
        queue: deque[int] = deque([0])
        stopped = ""
        while queue:
            sid = queue.popleft()
            info = self.states[sid]
            if info.terminal:
                continue
            if info.depth >= self.max_cycles:
                stopped = "max_cycles"
                continue
            prefix = self.trace_to(sid)
            vector: Optional[List[int]] = []
            while vector is not None:
                taken = tuple(vector)
                inst = Instance(self.case)
                inst.run_trace(prefix)
                try:
                    log = inst.step_cycle(vector)
                except (ChoiceError, AssertionError) as exc:
                    return self._refute(
                        classify_violation(exc), str(exc), prefix + (taken,)
                    )
                try:
                    bad = self._examine(inst, prefix + (taken,))
                except AssertionError as exc:
                    return self._refute(
                        classify_violation(exc), str(exc), prefix + (taken,)
                    )
                taken = tuple(log.vector())
                key = digest(encode_state(inst))
                self.edges += 1
                target = self.ids.get(key)
                if target is None:
                    target = len(self.states)
                    self.ids[key] = target
                    self.states.append(
                        _StateInfo(
                            target,
                            sid,
                            taken,
                            info.depth + 1,
                            bad,
                            inst.all_delivered(),
                        )
                    )
                    if len(self.states) >= self.max_states:
                        stopped = "max_states"
                        queue.clear()
                    else:
                        queue.append(target)
                else:
                    self._cross_check(target, prefix + (taken,))
                info.successors.append((taken, target))
                vector = next_vector(taken, log.domains)
                if stopped == "max_states":
                    break
            if stopped == "max_states":
                break
        if stopped:
            return Verdict(
                case=self.case,
                verdict="inconclusive",
                states=len(self.states),
                edges=self.edges,
                max_depth=max(s.depth for s in self.states),
                max_undetected_span=-1,
                statically_deadlock_free=self.static_free,
                stopped_on=stopped,
            )
        return self._liveness_verdict()

    # ------------------------------------------------------------------
    def _refute(self, kind: str, detail: str, trace: Trace) -> Verdict:
        return Verdict(
            case=self.case,
            verdict="refuted",
            states=len(self.states),
            edges=self.edges,
            max_depth=max((s.depth for s in self.states), default=0),
            max_undetected_span=-1,
            statically_deadlock_free=self.static_free,
            violation=Violation(kind=kind, detail=detail, trace=trace),
        )

    def _liveness_verdict(self) -> Verdict:
        span = 0
        all_bad = sorted({mid for s in self.states if s.bad for mid in s.bad})
        for mid in all_bad:
            members = frozenset(
                s.state_id for s in self.states if mid in s.bad
            )
            lasso = self._find_lasso(members)
            if lasso is not None:
                stem_state, loop = lasso
                detail = (
                    f"message {mid} stays oracle-deadlocked and undetected "
                    f"around a reachable loop of {len(loop)} cycle(s)"
                )
                return Verdict(
                    case=self.case,
                    verdict="refuted",
                    states=len(self.states),
                    edges=self.edges,
                    max_depth=max(s.depth for s in self.states),
                    max_undetected_span=-1,
                    statically_deadlock_free=self.static_free,
                    violation=Violation(
                        kind="false-negative",
                        detail=detail,
                        trace=self.trace_to(stem_state),
                        loop=loop,
                        message_id=mid,
                    ),
                )
            span = max(span, self._longest_path(members))
        return Verdict(
            case=self.case,
            verdict="proved",
            states=len(self.states),
            edges=self.edges,
            max_depth=max(s.depth for s in self.states),
            max_undetected_span=span,
            statically_deadlock_free=self.static_free,
        )

    def _find_lasso(
        self, members: FrozenSet[int]
    ) -> Optional[Tuple[int, Trace]]:
        """A cycle within ``members``: (entry state id, loop vectors)."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {sid: WHITE for sid in members}
        for root in sorted(members):
            if colour[root] != WHITE:
                continue
            # Stack entries: (state, index into its member successors).
            path: List[Tuple[int, int]] = [(root, 0)]
            colour[root] = GREY
            while path:
                sid, next_index = path[-1]
                succ = [
                    (vec, t)
                    for vec, t in self.states[sid].successors
                    if t in members
                ]
                if next_index >= len(succ):
                    path.pop()
                    colour[sid] = BLACK
                    continue
                path[-1] = (sid, next_index + 1)
                vec, target = succ[next_index]
                if colour[target] == GREY:
                    # The grey path from target to sid plus the closing
                    # edge is the loop; each hop's vector is the edge
                    # label recorded on the step that found it.
                    start = next(
                        k for k in range(len(path)) if path[k][0] == target
                    )
                    loop = [
                        self._edge_vector(path[k][0], path[k + 1][0])
                        for k in range(start, len(path) - 1)
                    ]
                    loop.append(vec)
                    return target, tuple(loop)
                if colour[target] == WHITE:
                    colour[target] = GREY
                    path.append((target, 0))
        return None

    def _edge_vector(self, src: int, dst: int) -> ChoiceVector:
        for vec, target in self.states[src].successors:
            if target == dst:
                return vec
        raise RuntimeError(
            f"internal: lasso reconstruction lost edge {src} -> {dst}"
        )

    def _longest_path(self, members: FrozenSet[int]) -> int:
        """Longest path (in states) through the acyclic member subgraph."""
        adjacency: Dict[int, List[int]] = {
            sid: sorted(
                {
                    t
                    for _, t in self.states[sid].successors
                    if t in members
                }
            )
            for sid in members
        }
        indegree = {sid: 0 for sid in members}
        for succ in adjacency.values():
            for t in succ:
                indegree[t] += 1
        order: List[int] = []
        ready = deque(sid for sid in sorted(members) if indegree[sid] == 0)
        while ready:
            sid = ready.popleft()
            order.append(sid)
            for t in adjacency[sid]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
        # Callers established acyclicity, so the topo order is complete.
        longest = {sid: 1 for sid in members}
        for sid in reversed(order):
            for t in adjacency[sid]:
                longest[sid] = max(longest[sid], 1 + longest[t])
        return max(longest.values(), default=0)


def classify_violation(exc: BaseException) -> str:
    from repro.verify.driver import StormViolation, WaiterViolation
    from repro.verify.recording import GPViolation

    if isinstance(exc, GPViolation):
        return "gp-rule"
    if isinstance(exc, StormViolation):
        return "probe-storm"
    if isinstance(exc, WaiterViolation):
        return "waiter"
    if isinstance(exc, ChoiceError):
        return "choice"
    return "structure"


def explore(
    case: VerifyCase,
    max_states: int = 200_000,
    max_cycles: int = 10_000,
    collision_checks: int = 32,
) -> Verdict:
    """Exhaustively enumerate ``case`` and return the checker's verdict.

    ``max_states`` / ``max_cycles`` are safety caps; hitting either
    yields an ``inconclusive`` verdict (never a false ``proved``).
    ``collision_checks`` bounds how many dedupe hits are re-expanded to
    empirically validate the canonical encoding.
    """
    return _Explorer(case, max_states, max_cycles, collision_checks).run()
