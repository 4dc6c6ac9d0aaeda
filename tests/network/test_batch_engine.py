"""Digest-equivalence gate for the batch campaign backend.

The batch backend (``repro.network.batch``) folds every detector cell
of a campaign grid onto one shared trajectory.  Its right to
exist is *bit-identical* per-cell results: each folded cell's
``to_dict(include_perf=False)`` — detection events included — must equal
an independent ``engine="event"`` run of that cell.  These tests enforce
that over the engine-equivalence corpus, plus the planner's grouping
rules (the fold is chosen from the cells, never asked for), the fixed
reduction order (PYTHONHASHSEED independence) and ``"batch"`` as an
accepted spelling of ``"event"``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.registry import detector_names
from repro.network.batch import (
    BatchObserver,
    BatchSimulator,
    batch_eligible,
    batch_group_key,
    plan_batches,
)
from repro.network.config import DetectorConfig, SimulationConfig
from repro.network.simulator import Simulator
from tests.network.test_engine_equivalence import CASES, _config

#: The campaign threshold ladder used throughout (non-powers included).
LADDER = [4, 8, 13, 16, 32]


def _ladder_cells(config: SimulationConfig, thresholds):
    """``config``'s own detector cell at each threshold."""
    return [
        dataclasses.replace(config.detector, threshold=t) for t in thresholds
    ]


def _fold(config: SimulationConfig, cells):
    return BatchSimulator(config, cells).run()


def _event_reference(config: SimulationConfig, cell: DetectorConfig):
    ref = config.replace(engine="event")
    ref.detector = dataclasses.replace(cell)
    return Simulator(ref).run()


def assert_fold_matches_event(config: SimulationConfig, cells) -> None:
    for cell, b in zip(cells, _fold(config, cells)):
        e = _event_reference(config, cell)
        assert b.to_dict(include_perf=False) == e.to_dict(
            include_perf=False
        ), f"{cell.mechanism}:{cell.threshold}"


def assert_batch_matches_event(config: SimulationConfig, thresholds) -> None:
    assert_fold_matches_event(config, _ladder_cells(config, thresholds))


# ----------------------------------------------------------------------
# Digest equivalence over the corpus
# ----------------------------------------------------------------------

#: The corpus' ndm cases, under either promotion, with recovery forced
#: to "none" (the backend's eligibility domain).  A selective-promotion
#: ladder is all units: its parked headers wake at the units' deadlines.
ELIGIBLE_CASES = sorted(
    name
    for name, overrides in CASES.items()
    if overrides.get("mechanism") == "ndm"
)


@pytest.mark.parametrize("case", ELIGIBLE_CASES)
def test_batch_cells_bit_identical_over_corpus(case):
    overrides = dict(CASES[case])
    overrides["recovery"] = "none"
    assert_batch_matches_event(_config(**overrides), LADDER)


def test_batch_cells_bit_identical_saturated_torus():
    """The benchmark's regime: 64 nodes beyond saturation."""
    config = _config(
        radix=8,
        mechanism="ndm",
        threshold=32,
        injection_rate=1.0,
        injection_limit_fraction=0.4,  # the paper's default
        recovery="none",
        warmup_cycles=100,
        measure_cycles=400,
    )
    assert_batch_matches_event(config, [2, 8, 32, 128, 512])


def test_duplicate_and_unsorted_thresholds_align_with_input():
    config = _config(mechanism="ndm", threshold=16, recovery="none")
    cells = _ladder_cells(config, [16, 4, 16, 8])
    batch = _fold(config, cells)
    assert [b.to_dict(include_perf=False) for b in batch] == [
        _event_reference(config, cell).to_dict(include_perf=False)
        for cell in cells
    ]
    # The two th=16 cells are the same folded object's stats.
    assert batch[0].to_dict() == batch[2].to_dict()


def test_single_cell_batch_matches_event():
    config = _config(mechanism="ndm", threshold=16, recovery="none")
    assert_batch_matches_event(config, [16])


# ----------------------------------------------------------------------
# engine="batch" as a spelling of "event" (the frozen benchmark uses it)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_engine_single_run_matches_event(case):
    """A lone ``engine="batch"`` run is the event engine, for *any*
    detector."""
    config = _config(**CASES[case])
    stats_event = Simulator(config.replace(engine="event")).run()
    stats_batch = Simulator(config.replace(engine="batch")).run()
    assert stats_event.to_dict(include_perf=False) == stats_batch.to_dict(
        include_perf=False
    )


def test_engine_accepts_batch():
    config = _config()
    config.engine = "batch"
    config.validate()


# ----------------------------------------------------------------------
# Eligibility and planning
# ----------------------------------------------------------------------

def _eligible_config(threshold=16, **overrides):
    params = dict(mechanism="ndm", threshold=threshold, recovery="none")
    params.update(overrides)
    return _config(**params)


class TestEligibility:
    def test_eligible(self):
        assert batch_eligible(_eligible_config())

    @pytest.mark.parametrize("mechanism", detector_names())
    def test_every_pure_observer_mechanism_eligible(self, mechanism):
        """Trajectory sharing folds across mechanisms, not just
        thresholds: every registered detector is shareable, the ones
        that ride a fold as units (ndm-precise, none) included."""
        config = _config(mechanism=mechanism, threshold=16, recovery="none")
        assert batch_eligible(config)

    def test_selective_promotion_eligible(self):
        """Selective promotion keeps its waiter maps per run, so it rides
        a fold as a unit rather than being kept single."""
        assert batch_eligible(_eligible_config(selective_promotion=True))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(recovery="regressive"),
            dict(recovery="progressive"),
        ],
    )
    def test_feedback_sources_ineligible(self, overrides):
        config = _config(
            **{"mechanism": "ndm", "threshold": 16, "recovery": "none",
               **overrides}
        )
        assert not batch_eligible(config)

    def test_fault_schedules_ineligible(self):
        config = _eligible_config()
        config.faults = [dict(kind="link", cycle=10, node=0, port=0)]
        assert not batch_eligible(config)

    def test_batch_simulator_rejects_ineligible(self):
        config = _config(mechanism="ndm", threshold=16,
                         recovery="progressive")
        with pytest.raises(ValueError, match="not batch-shareable"):
            BatchSimulator(config, _ladder_cells(config, [8, 16]))

    def test_group_key_ignores_the_detector_cell_only(self):
        a, b = _eligible_config(threshold=8), _eligible_config(threshold=32)
        assert batch_group_key(a) == batch_group_key(b)
        c = _eligible_config(threshold=8, seed=21)
        assert batch_group_key(a) != batch_group_key(c)
        # Mechanism and the probe storm-guard caps are cell identity,
        # masked out of the group key like the threshold.
        for overrides in (
            dict(mechanism="pdm"),
            dict(mechanism="timeout"),
            dict(mechanism="probe"),
        ):
            d = _eligible_config(threshold=8, **overrides)
            assert batch_group_key(a) == batch_group_key(d)
        e = _eligible_config(threshold=8, mechanism="probe")
        e.detector.probe_max_hops = 8
        assert batch_group_key(a) == batch_group_key(e)

    def test_group_key_keeps_t1(self):
        """t1 arms the shared G/P dynamics: cells disagreeing on it
        must not fold onto one trajectory."""
        a = _eligible_config(threshold=8)
        b = _eligible_config(threshold=8)
        b.detector.t1 = a.detector.t1 + 1
        assert batch_group_key(a) != batch_group_key(b)


class TestPlanBatches:
    def test_groups_threshold_siblings(self):
        configs = [_eligible_config(threshold=t) for t in (4, 8, 16)]
        configs.append(_eligible_config(threshold=4, seed=21))
        groups, singles = plan_batches(configs)
        assert groups == [[0, 1, 2]]
        assert singles == [3]

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (dict(), ([[0, 1]], [])),
            (dict(engine="batch"), ([[0, 1]], [])),
            (dict(engine="scan"), ([], [0, 1])),
            (dict(recovery="progressive"), ([], [0, 1])),
            (dict(faults=[dict(kind="link", cycle=10, node=0, port=0)]),
             ([], [0, 1])),
            (dict(selective_promotion=True), ([[0, 1]], [])),
        ],
        ids=["default", "batch-spelling", "scan-reference", "recovery-on",
             "faulted", "selective-promotion"],
    )
    def test_fold_is_chosen_from_the_cells(self, overrides, expected):
        """Two threshold siblings fold exactly when nothing observable
        forbids it; no engine name has to ask for it, and the ``"scan"``
        reference is never folded."""
        configs = [
            _eligible_config(threshold=t, **overrides) for t in (4, 8)
        ]
        assert plan_batches(configs) == expected

    def test_event_and_batch_spellings_both_fold(self):
        """Spellings of one grid need not share a group (the engine
        name is part of the group key), but each folds."""
        configs = [
            _eligible_config(threshold=t, engine=engine)
            for engine in ("event", "batch")
            for t in (4, 8)
        ]
        groups, singles = plan_batches(configs)
        assert sorted(groups) == [[0, 1], [2, 3]]
        assert singles == []

    def test_lone_member_stays_single(self):
        groups, singles = plan_batches([_eligible_config()])
        assert groups == []
        assert singles == [0]

    def test_one_trajectory_per_traffic_point(self):
        """Every eligible cell of one traffic point shares one trajectory,
        however many there are: 70 distinct cells plan as one group, and
        a spread of them folds to their solo runs."""
        ladders = {"ndm": range(2, 26), "pdm": range(2, 26),
                   "timeout": range(2, 24)}
        configs = [
            _eligible_config(threshold=t, mechanism=mechanism,
                             warmup_cycles=50, measure_cycles=150)
            for mechanism, thresholds in ladders.items()
            for t in thresholds
        ]
        assert plan_batches(configs) == ([list(range(70))], [])
        folded = _fold(configs[0], [c.detector for c in configs])
        for i in (0, 11, 23, 24, 40, 47, 48, 60, 69):
            solo = Simulator(configs[i]).run()
            assert folded[i].to_dict(include_perf=False) == solo.to_dict(
                include_perf=False
            ), configs[i].detector


# ----------------------------------------------------------------------
# Cross-detector trajectory sharing
# ----------------------------------------------------------------------

def _cell(**kw) -> DetectorConfig:
    base = dict(mechanism="ndm", threshold=16, t1=1)
    base.update(kw)
    return DetectorConfig(**base)


#: A deadlocking regime that is still cheap: 16 nodes, single lane,
#: beyond saturation (every mechanism family detects here).
def _mixed_config(**overrides) -> SimulationConfig:
    params = dict(
        mechanism="ndm", threshold=16, recovery="none",
        vcs_per_channel=1, injection_rate=0.8,
    )
    params.update(overrides)
    return _config(**params)


#: One group spanning every ladder family (two cells for the header-side
#: ones), a selective-promotion ndm unit and two probe units with
#: distinct storm-guard caps.
MIXED_CELLS = [
    _cell(mechanism="ndm", threshold=8),
    _cell(mechanism="ndm", threshold=16),
    _cell(mechanism="ndm", threshold=16, selective_promotion=True),
    _cell(mechanism="pdm", threshold=8),
    _cell(mechanism="pdm", threshold=24),
    _cell(mechanism="timeout", threshold=24),
    _cell(mechanism="timeout", threshold=64),
    _cell(mechanism="source-age", threshold=50),
    _cell(mechanism="injection-stall", threshold=40),
    _cell(mechanism="probe", threshold=16),
    _cell(mechanism="probe", threshold=16, probe_max_hops=8),
]


class TestMixedGroups:
    def test_mixed_cells_bit_identical(self):
        """The tentpole gate: one shared trajectory serving every
        mechanism family reproduces each cell's event run byte for
        byte.
        """
        config = _mixed_config()
        batch = _fold(config, MIXED_CELLS)
        detections = 0
        for cell, b in zip(MIXED_CELLS, batch):
            e = _event_reference(config, cell)
            assert b.to_dict(include_perf=False) == e.to_dict(
                include_perf=False
            ), f"{cell.mechanism}:{cell.threshold}"
            detections += b.detections
        # Regime sanity: the equality above must not be vacuous.
        assert detections > 0

    def test_run_batch_cells_aligns_with_input_order(self):
        config = _mixed_config()
        cells = [
            _cell(mechanism="timeout", threshold=24),
            _cell(mechanism="ndm", threshold=8),
            _cell(mechanism="timeout", threshold=24),  # duplicate
        ]
        batch = _fold(config, cells)
        assert [b.to_dict(include_perf=False) for b in batch] == [
            _event_reference(config, c).to_dict(include_perf=False)
            for c in cells
        ]
        assert batch[0].to_dict() == batch[2].to_dict()

    def test_probe_counters_fold_per_cell(self):
        """Probe transports are per cell: each folded cell reports its
        own launch/hop counters, and non-probe cells report zero."""
        config = _mixed_config()
        cells = [
            _cell(mechanism="probe", threshold=16),
            _cell(mechanism="probe", threshold=16, probe_max_hops=8),
            _cell(mechanism="ndm", threshold=8),
        ]
        batch = _fold(config, cells)
        for cell, b in zip(cells, batch):
            e = _event_reference(config, cell)
            assert b.probe_launches == e.probe_launches
            assert b.probe_hops == e.probe_hops
        assert batch[0].probe_launches > 0
        assert batch[2].probe_launches == 0

    def test_detection_events_carry_cell_mechanism(self):
        config = _mixed_config()
        cells = [
            _cell(mechanism="timeout", threshold=24),
            _cell(mechanism="pdm", threshold=8),
        ]
        for cell, b in zip(cells, _fold(config, cells)):
            assert b.detection_events, cell.mechanism
            assert {e.mechanism for e in b.detection_events} == {
                cell.mechanism
            }

    def test_observer_takes_ladderless_cells_as_units(self):
        """Cells no threshold ladder carries (selective promotion,
        ndm-precise, none) ride as units of their own beside a ladder."""
        ladder = _cell(mechanism="ndm", threshold=8)
        units = [
            _cell(mechanism="ndm", threshold=16, selective_promotion=True),
            _cell(mechanism="ndm-precise", threshold=16),
            _cell(mechanism="none"),
        ]
        observer = BatchObserver([ladder] + units)
        assert observer.cells[0] == ladder
        assert sorted(observer._units) == [1, 2, 3]
        assert observer.gp_all == 0b1

    def test_observer_rejects_mixed_t1(self):
        with pytest.raises(ValueError, match="disagree on t1"):
            BatchObserver([_cell(threshold=8, t1=1), _cell(threshold=16, t1=2)])

    def test_every_mechanism_folds_unparked(self):
        """ndm-precise records a witness on every attempt, so a group
        holding it parks nothing.  With it and a ``none`` cell beside
        ``MIXED_CELLS``, one fold holds every registered mechanism, and
        each cell still equals its solo run."""
        config = _mixed_config()
        cells = MIXED_CELLS + [
            _cell(mechanism="ndm-precise", threshold=16),
            _cell(mechanism="none"),
        ]
        assert {cell.mechanism for cell in cells} == set(detector_names())
        batch = _fold(config, cells)
        for cell, b in zip(cells, batch):
            e = _event_reference(config, cell)
            assert b.to_dict(include_perf=False) == e.to_dict(
                include_perf=False
            ), f"{cell.mechanism}:{cell.threshold}"
        assert batch[0].engine_counters["route_parks"] == 0
        assert batch[-2].detections > 0


class TestMixedPlanning:
    def test_mechanisms_fold_into_one_group(self):
        configs = [
            _eligible_config(threshold=8),
            _eligible_config(threshold=8, mechanism="pdm"),
            _eligible_config(threshold=24, mechanism="timeout"),
            _eligible_config(threshold=16, mechanism="probe"),
        ]
        groups, singles = plan_batches(configs)
        assert groups == [[0, 1, 2, 3]]
        assert singles == []


#: Hypothesis: any mixed bag of cells folds bit-identically.
_CELL_STRATEGY = st.fixed_dictionaries(
    {
        "mechanism": st.sampled_from(detector_names()),
        "threshold": st.sampled_from([4, 8, 16, 24, 50]),
        "probe_max_hops": st.sampled_from([8, 64]),
        "selective_promotion": st.booleans(),
    }
)


@given(
    cells=st.lists(_CELL_STRATEGY, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**10),
    rate=st.sampled_from([0.4, 0.8]),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_mixed_groups_fold_bit_identical(cells, seed, rate):
    config = _mixed_config(seed=seed, injection_rate=rate)
    config.warmup_cycles = 50
    config.measure_cycles = 250
    assert_fold_matches_event(config, [_cell(**kw) for kw in cells])


# ----------------------------------------------------------------------
# On-detection ground truth: each cell classifies like its solo run
# ----------------------------------------------------------------------

_ROUTING_THEN_ROUTING = [
    _cell(mechanism="pdm", threshold=2),
    _cell(mechanism="timeout", threshold=128),
]


@pytest.mark.parametrize(
    "cells, interval, seed",
    [
        # The stall cell detects in the checks phase, the ndm cell
        # mid-routing.
        ([_cell(mechanism="ndm", threshold=2),
          _cell(mechanism="injection-stall", threshold=128)], 0, 803),
        # Both detect inside the routing phase, at different instants.
        (_ROUTING_THEN_ROUTING, 0, 803),
        # A sweep every cycle, taken before any detection of the cycle:
        # grading pdm's marks against it turns 18 of them over.
        (_ROUTING_THEN_ROUTING, 1, 7),
    ],
    ids=["checks-then-routing", "routing-then-routing", "swept-every-cycle"],
)
def test_on_detection_truth_matches_solo_run(cells, interval, seed):
    """A solo run grades each mark against the network at the instant it
    is made; on a shared trajectory another cell's earlier detection, or
    the cycle's sweep, must not stand in for that instant."""
    config = SimulationConfig(
        radix=8, dimensions=2, vcs_per_channel=1,
        warmup_cycles=0, measure_cycles=1000, seed=seed,
        recovery="none", ground_truth_interval=interval,
        ground_truth_on_detection=True,
    )
    config.traffic.injection_rate = 0.6
    assert_fold_matches_event(config, cells)


# ----------------------------------------------------------------------
# Host independence: hash seed, and no array library to depend on
# ----------------------------------------------------------------------

_LADDER_SCRIPT = """
import dataclasses
from repro.network.batch import BatchSimulator
from tests.network.test_engine_equivalence import _config

config = _config(
    mechanism="ndm", threshold=16, recovery="none", injection_rate=0.6
)
cells = [
    dataclasses.replace(config.detector, threshold=t)
    for t in (4, 8, 13, 16, 32)
]
folded = BatchSimulator(config, cells).run()
"""

_MIXED_SCRIPT = """
from repro.network.batch import BatchSimulator
from repro.network.config import DetectorConfig
from tests.network.test_engine_equivalence import _config

config = _config(
    mechanism="ndm", threshold=16, recovery="none",
    vcs_per_channel=1, injection_rate=0.8,
)
cells = [
    DetectorConfig(mechanism="timeout", threshold=24),
    DetectorConfig(mechanism="ndm", threshold=8),
    DetectorConfig(mechanism="pdm", threshold=8),
    DetectorConfig(mechanism="probe", threshold=16),
    DetectorConfig(mechanism="source-age", threshold=50),
    DetectorConfig(mechanism="injection-stall", threshold=40),
]
folded = BatchSimulator(config, cells).run()
"""

_PRINT_DIGEST = """
import hashlib, json
payload = [c.to_dict(include_perf=False) for c in folded]
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""

_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

from repro.network.batch import BatchSimulator, plan_batches
from repro.network.simulator import Simulator
from tests.network.test_engine_equivalence import _config

configs = []
for threshold in (4, 8, 16):
    config = _config(
        mechanism="ndm", threshold=threshold, recovery="none"
    )
    configs.append(config)
groups, singles = plan_batches(configs)
assert (groups, singles) == ([[0, 1, 2]], []), (groups, singles)
folded = BatchSimulator(configs[0], [c.detector for c in configs]).run()
for config, cell in zip(configs, folded):
    solo = Simulator(config.replace(engine="event")).run()
    assert cell.to_dict(include_perf=False) == solo.to_dict(include_perf=False)
assert "numpy" not in {name for name, mod in sys.modules.items() if mod}
print("ok")
"""


def _run_script(script: str, hashseed: str = "0") -> str:
    """Run ``script`` in a fresh interpreter with a fixed hash seed."""
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [str(repo_root / "src"), str(repo_root), env.get("PYTHONPATH")],
        )
    )
    env["PYTHONHASHSEED"] = hashseed
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return result.stdout.strip()


def test_batch_results_identical_across_hash_seeds():
    """Cell folding runs in ladder/channel-index order, never in hash
    order: two interpreters with different hash randomization must
    produce byte-identical per-cell behavioural dicts."""
    script = _LADDER_SCRIPT + _PRINT_DIGEST
    assert _run_script(script, "0") == _run_script(script, "4242")


def test_mixed_groups_identical_across_hash_seeds():
    """The cross-mechanism fold adds dict-keyed state (pending masks,
    probe units, family tables); the canonical cell order keeps every
    reduction hash-independent."""
    script = _MIXED_SCRIPT + _PRINT_DIGEST
    assert _run_script(script, "0") == _run_script(script, "4242")


def test_fold_works_without_numpy():
    """With numpy unimportable ``plan_batches`` still forms groups and a
    folded cell still equals its solo run: folding must not depend on
    what happens to be installed on a campaign worker."""
    assert _run_script(_NO_NUMPY_SCRIPT) == "ok"
