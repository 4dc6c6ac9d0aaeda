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
