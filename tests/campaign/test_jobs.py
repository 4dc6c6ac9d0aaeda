"""Tests for campaign job enumeration, hashing and the unit payload."""

import dataclasses
import hashlib
import json

import pytest

from repro.campaign.jobs import (
    CellJob,
    cell_from_dict,
    cell_to_dict,
    config_hash,
    enumerate_table_jobs,
    job_key,
    unit_payload,
)
from repro.experiments.runner import CellResult, build_cell_config, saturation_rate
from repro.experiments.spec import TABLE_SPECS, base_config, quick_spec
from tests.campaign.conftest import tiny_base, tiny_spec


class TestConfigHash:
    def test_stable_across_instances(self):
        a = build_cell_config(tiny_base(), tiny_spec(), 8, "s", 0.3)
        b = build_cell_config(tiny_base(), tiny_spec(), 8, "s", 0.3)
        assert a is not b
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_every_knob(self):
        base = build_cell_config(tiny_base(), tiny_spec(), 8, "s", 0.3)
        reference = config_hash(base)
        for change in (
            {"seed": 99},
            {"radix": 8},
            {"warmup_cycles": 50},
        ):
            assert config_hash(base.replace(**change)) != reference
        threshold = build_cell_config(tiny_base(), tiny_spec(), 32, "s", 0.3)
        assert config_hash(threshold) != reference
        rate = build_cell_config(tiny_base(), tiny_spec(), 8, "s", 0.4)
        assert config_hash(rate) != reference

    def test_hex_sha256(self):
        digest = config_hash(tiny_base())
        assert len(digest) == 64
        int(digest, 16)  # must be valid hex

    @pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
    def test_every_table_job_hashes_as_its_asdict_json(self, full):
        """``to_dict`` skips ``asdict``'s deep copy but not its content:
        no cache key or manifest hash of any paper-table cell moves."""
        base = base_config(full=full)
        jobs = []
        for spec in TABLE_SPECS.values():
            spec = spec if full else quick_spec(spec)
            jobs += enumerate_table_jobs(spec, base, saturation_rate(base, spec))[1]
        assert len(jobs) == (1020 if full else 192)
        for job in jobs:
            text = json.dumps(
                dataclasses.asdict(job.config), sort_keys=True, separators=(",", ":")
            )
            assert job.config_hash == hashlib.sha256(text.encode()).hexdigest()


def _splice_bases():
    """Bases beyond the paper's two: another seed, other windows, a fault
    schedule and an injection cap switched off."""
    seeded = tiny_base()
    seeded.seed = 11
    windows = tiny_base()
    windows.warmup_cycles, windows.measure_cycles, windows.drain_cycles = 7, 93, 50
    faulty = tiny_base()
    faulty.faults = [
        {"kind": "link-down", "start": 20, "end": 60, "channel": ch}
        for ch in (0, 5)
    ]
    uncapped = base_config(full=True)
    uncapped.injection_limit_fraction = None
    return [
        pytest.param(seeded, id="seed11"),
        pytest.param(windows, id="windows"),
        pytest.param(faulty, id="faults"),
        pytest.param(uncapped, id="full-uncapped"),
    ]


def _splice_specs():
    hot = dataclasses.replace(
        tiny_spec(table_id=9), pattern="hot-spot",
        pattern_params={"fraction": 0.25}, sizes=("s", "sl"),
    )
    return [
        pytest.param(tiny_spec(), id="plain"),
        pytest.param(hot, id="pattern_params"),
        pytest.param(quick_spec(TABLE_SPECS[3]), id="table3"),
    ]


class TestSplicedKeys:
    """``enumerate_table_jobs`` splices each cell's key into one canonical
    text per table; ``config_hash`` still defines the key."""

    @pytest.mark.parametrize("saturation", [0.738, 1.2345678, 3.0])
    @pytest.mark.parametrize("spec", _splice_specs())
    @pytest.mark.parametrize("base", _splice_bases())
    def test_every_job_is_its_own_config(self, base, spec, saturation):
        before = config_hash(base)
        _, jobs = enumerate_table_jobs(spec, base, saturation)
        assert config_hash(base) == before  # the base is not touched
        for job in jobs:
            assert job.config_hash == config_hash(job.config)
            assert job.config == build_cell_config(
                base, spec, job.threshold, job.size, job.rate
            )

    @pytest.mark.parametrize("base", _splice_bases())
    def test_no_two_jobs_share_a_mutable_part(self, base):
        spec = _splice_specs()[1].values[0]  # the one with pattern_params
        _, jobs = enumerate_table_jobs(spec, base, 0.5)
        hashes = [job.config_hash for job in jobs]
        snapshots = [job.config.to_dict() for job in jobs]
        # Sharing is symmetric, so checking the jobs after each victim
        # (all still untouched) covers every pair.
        for n, victim in enumerate(jobs):
            config = victim.config
            config.traffic.pattern = "uniform"
            config.traffic.pattern_params["fraction"] = 0.9
            config.detector.t1 = 5
            if config.faults is not None:
                config.faults[0]["start"] = 1
                config.faults.append(dict(config.faults[0]))
            later = list(zip(jobs, snapshots, hashes))[n + 1:]
            for other, snapshot, digest in later:
                assert other.config.to_dict() == snapshot
                assert config_hash(other.config) == digest

    @pytest.mark.parametrize(
        "threshold,size,rate",
        [(True, "s", 0.5), (8, "s", -0.0), (8, "s", float("nan")),
         (8, "s", float("inf")), (8.0, "s", 1e-07), (2**70, "s", 0.5),
         (8, "s\u00e9\"\n", 0.5)],
        ids=["bool", "negative-zero", "nan", "inf", "float-threshold",
             "big-int", "escaped-size"],
    )
    def test_odd_scalars_key_as_config_hash_does(
        self, base, spec, threshold, size, rate
    ):
        spec = dataclasses.replace(
            spec, thresholds=(threshold,), sizes=(size,), load_fractions=(1.0,)
        )
        [job] = enumerate_table_jobs(spec, base, rate)[1]
        assert job.config_hash == config_hash(job.config)

    def test_a_value_the_encoder_rejects_raises(self, base, spec):
        spec = dataclasses.replace(spec, thresholds=(object(),))
        with pytest.raises(TypeError):
            enumerate_table_jobs(spec, base, 1.0)

    def test_a_stand_in_elsewhere_in_the_config_raises(self, base, spec):
        spec = dataclasses.replace(spec, pattern_params={"tag": "\x00rate"})
        with pytest.raises(ValueError, match="cannot cut"):
            enumerate_table_jobs(spec, base, 1.0)


#: ``config_hash`` of three quick cells, recorded before keys were
#: spliced.  A change that re-keys every store (a new config field, an
#: encoder change) fails here by name instead of silently missing.
PINNED_KEYS = {
    (1, "table1/th8/load1/s"):
        "feb541f2743c2c87daffc7579603cc2e3130cee89bfa8784a2d54c5000c5d21f",
    (3, "table3/th32/load0/sl"):
        "3d27bb649940a25a9ea50d09e669ac41cb6c1c0cb9d6b15c093f956183d91cbd",
    (8, "table8/th128/load1/l"):
        "e23dc58640d0d0b350be758df615bec7180a9421e76f249ef1f7f08e84500c83",
}


@pytest.mark.parametrize("table_id,key", sorted(PINNED_KEYS))
def test_quick_cell_cache_key_is_pinned(table_id, key):
    base = base_config(full=False)
    spec = quick_spec(TABLE_SPECS[table_id])
    jobs = enumerate_table_jobs(spec, base, saturation_rate(base, spec))[1]
    [job] = [job for job in jobs if job.key == key]
    assert job.config_hash == PINNED_KEYS[table_id, key]
    assert config_hash(job.config) == PINNED_KEYS[table_id, key]


class TestEnumerateTableJobs:
    def test_canonical_order_and_count(self, spec, base):
        rates, jobs = enumerate_table_jobs(spec, base, saturation=1.0)
        assert rates == (0.5, 0.7)
        assert len(jobs) == spec.cell_count()
        coords = [(j.threshold, j.load_index, j.size) for j in jobs]
        assert coords == list(spec.cell_coords())

    def test_jobs_self_describing(self, spec, base):
        _, jobs = enumerate_table_jobs(spec, base, saturation=1.0)
        job = jobs[0]
        assert isinstance(job, CellJob)
        assert job.key == job_key(spec.table_id, 8, 0, "s")
        assert job.rate == 0.5
        assert job.config.traffic.injection_rate == 0.5
        assert job.config.detector.threshold == 8
        assert job.config_hash == config_hash(job.config)

    def test_every_cell_runs_on_base_seed(self, spec, base):
        _, jobs = enumerate_table_jobs(spec, base, 1.0)
        assert {j.config.seed for j in jobs} == {base.seed}

    def test_unit_payload_round_trips_config(self, spec, base):
        from repro.network.config import DetectorConfig, SimulationConfig

        _, jobs = enumerate_table_jobs(spec, base, 1.0)
        solo = unit_payload("cell", jobs[:1])
        assert solo["kind"] == "cell"
        assert solo["keys"] == [jobs[0].key]
        assert solo["rates"] == [jobs[0].rate]
        rebuilt = SimulationConfig.from_dict(solo["config"])
        assert config_hash(rebuilt) == jobs[0].config_hash

        # A larger unit carries every member's own detector cell.
        pair = unit_payload("fold", jobs[:2])
        assert pair["kind"] == "fold"
        assert pair["keys"] == [j.key for j in jobs[:2]]
        assert [DetectorConfig(**d) for d in pair["detectors"]] == [
            j.config.detector for j in jobs[:2]
        ]


class TestCellSerialization:
    def test_round_trip_exact(self):
        cell = CellResult(
            percentage=1.2345678901234567,
            detections=5,
            messages_detected=4,
            true_detections=1,
            false_detections=3,
            injected=1000,
            throughput=0.123456789,
            injection_rate=0.4321,
            had_true_deadlock=True,
        )
        assert cell_from_dict(cell_to_dict(cell)) == cell

    def test_json_round_trip_exact(self):
        import json

        cell = CellResult(
            percentage=100.0 * 7 / 1234,
            detections=7,
            messages_detected=7,
            true_detections=0,
            false_detections=7,
            injected=1234,
            throughput=5678 / (400 * 16),
            injection_rate=0.3,
            had_true_deadlock=False,
        )
        wire = json.loads(json.dumps(cell_to_dict(cell)))
        assert cell_from_dict(wire) == cell
