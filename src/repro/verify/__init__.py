"""Exhaustive state-space verification of small network configurations.

A bounded model checker over the *real* simulator: scripted workloads and
scripted arbitration turn every run into a pure function of its choice
trace, a canonical time-relative encoding quotients away absolute time,
and breadth-first enumeration visits every reachable state of 2-4 node
configurations.  Per state the checker asserts the structural invariants,
audits every G/P transition against the paper's promotion rules, and
checks the 0-false-negative property as a liveness condition on the
finite quotient — refutations ship as minimized, replayable
counterexample files.

See ``docs/verification.md`` for the method and its soundness argument.
"""

from repro.verify.checker import (
    EncodingUnsound,
    OracleContradiction,
    Verdict,
    Violation,
    explore,
)
from repro.verify.counterexample import (
    ReplayMismatch,
    check_counterexample,
    load_counterexample,
    write_counterexample,
)
from repro.verify.driver import Instance
from repro.verify.encode import behavioural_digest, digest, encode_state
from repro.verify.library import all_cases, refutation_selftest_case, scenarios
from repro.verify.scenario import (
    PERMANENT,
    MessageSpec,
    VerifyCase,
    VerifyScenario,
)

__all__ = [
    "EncodingUnsound",
    "Instance",
    "MessageSpec",
    "OracleContradiction",
    "PERMANENT",
    "ReplayMismatch",
    "Verdict",
    "VerifyCase",
    "VerifyScenario",
    "Violation",
    "all_cases",
    "behavioural_digest",
    "check_counterexample",
    "digest",
    "encode_state",
    "explore",
    "load_counterexample",
    "refutation_selftest_case",
    "scenarios",
    "write_counterexample",
]
