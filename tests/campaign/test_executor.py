"""Tests for the campaign executor: serial/pool determinism, cache, resume."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.executor import JobOutcome, execute_jobs
from repro.campaign.jobs import cell_to_dict, enumerate_table_jobs, unit_payload
from repro.experiments.runner import cell_from_stats, run_cell
from repro.network.simulator import Simulator
from tests.campaign.conftest import tiny_base, tiny_spec


def tiny_jobs(spec=None, base=None):
    _, jobs = enumerate_table_jobs(
        spec or tiny_spec(), base or tiny_base(), saturation=1.0
    )
    return jobs


def batch_base():
    """Tiny-grid base that makes every cell batch-shareable."""
    base = tiny_base()
    base.recovery = "none"
    return base


def spy_on_units(monkeypatch):
    """Patch the one worker entry; returns the live list of the key
    lists it is called with (one per unit, in execution order)."""
    units = []
    original = executor_module._run_unit

    def spy(payload, worker=None):
        units.append(list(payload["keys"]))
        return original(payload, worker)

    monkeypatch.setattr(executor_module, "_run_unit", spy)
    return units


class TestDeterminism:
    def test_serial_matches_direct_run_cell(self):
        """The executor path (stats round-trip included) is bit-identical
        to calling ``run_cell`` directly."""
        spec, base = tiny_spec(), tiny_base()
        jobs = tiny_jobs(spec, base)
        outcomes = execute_jobs(jobs, num_workers=1)
        for job in jobs:
            direct = run_cell(base, spec, job.threshold, job.size, job.rate)
            assert outcomes[job.key].cell == direct, job.key

    def test_serial_and_pool_paths_identical(self):
        """Regression guard for the parallel refactor: identical config +
        seed must yield identical ``CellResult`` on both paths."""
        jobs = tiny_jobs()
        serial = execute_jobs(jobs, num_workers=1)
        pooled = execute_jobs(jobs, num_workers=2)
        assert set(serial) == set(pooled)
        for key in serial:
            assert serial[key].cell == pooled[key].cell, key

    def test_repeated_serial_runs_identical(self):
        jobs = tiny_jobs()
        first = execute_jobs(jobs, num_workers=1)
        second = execute_jobs(jobs, num_workers=1)
        for key in first:
            assert first[key].cell == second[key].cell


def inline_pool(monkeypatch):
    """Replace the process pool with one that runs each unit as it is
    submitted; returns the live list of submitted key lists."""
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, payload):
            submitted.append(list(payload["keys"]))
            future = Future()
            future.set_result(fn(payload, "inline"))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    # The executor imports the pool inside its pool branch.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return submitted


class TestPoolSubmission:
    """The pool takes units longest first: cycles x nodes x load."""

    @staticmethod
    def two_lengths():
        long_base = tiny_base()
        long_base.measure_cycles = 800
        return tiny_jobs() + tiny_jobs(tiny_spec(table_id=3), long_base)

    def test_pool_submits_longest_unit_first(self, monkeypatch):
        jobs = self.two_lengths()
        submitted = inline_pool(monkeypatch)
        execute_jobs(jobs, num_workers=2)

        def keys(table_id, load_index):
            return [
                [j.key] for j in jobs
                if (j.table_id, j.load_index) == (table_id, load_index)
            ]

        # 900 cycles beat 500, then the higher load; equal costs keep
        # their input order (the two thresholds of one load).
        assert submitted == keys(3, 1) + keys(3, 0) + keys(2, 1) + keys(2, 0)

    def test_serial_loop_keeps_input_order(self, monkeypatch):
        jobs = self.two_lengths()
        units = spy_on_units(monkeypatch)
        execute_jobs(jobs, num_workers=1)
        assert units == [[j.key] for j in jobs]

    def test_pool_records_equal_serial_records(self):
        def records(outcomes):
            return {
                key: {
                    k: v for k, v in o.record().items()
                    if k not in ("wall_time", "worker")
                }
                for key, o in outcomes.items()
            }

        jobs = mixed_jobs()
        serial = execute_jobs(jobs, num_workers=1)
        pooled = execute_jobs(jobs, num_workers=2)
        assert {o.worker for o in pooled.values()} != {"serial"}
        assert records(pooled) == records(serial)

    def test_serial_campaign_loads_no_process_pool(self):
        """The pool machinery (multiprocessing, its queues) is imported
        only when a campaign fans out."""
        script = """
import sys
from repro.campaign import enumerate_table_jobs, execute_jobs
from repro.experiments.spec import TABLE_SPECS, base_config, quick_spec
base = base_config(full=False)
base.radix, base.warmup_cycles, base.measure_cycles = 4, 10, 40
_, jobs = enumerate_table_jobs(quick_spec(TABLE_SPECS[2]), base, 0.5)
outcomes = execute_jobs(jobs[:1], num_workers=1)
assert [o.source for o in outcomes.values()] == ["run"]
print("concurrent.futures.process" in sys.modules)
"""
        src_dir = Path(executor_module.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src_dir), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert result.stdout.strip() == "False"


class TestProgressAndTelemetry:
    def test_progress_counts_every_job(self):
        jobs = tiny_jobs()
        seen = []
        execute_jobs(jobs, num_workers=1,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i + 1, len(jobs)) for i in range(len(jobs))]

    def test_outcome_telemetry(self):
        outcomes = execute_jobs(tiny_jobs(), num_workers=1)
        for outcome in outcomes.values():
            assert outcome.source == "run"
            assert outcome.worker == "serial"
            assert outcome.wall_time > 0

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            execute_jobs(tiny_jobs(), num_workers=0)

    def test_bad_cell_rejected_before_any_cell_runs(self, monkeypatch):
        """A cell its simulator would reject (ndm with t1 >= t2, an unknown
        routing function) fails the campaign up front, not after its
        neighbours have been simulated."""
        units = spy_on_units(monkeypatch)
        jobs = tiny_jobs()
        jobs[-1].config.detector.threshold = 1
        with pytest.raises(ValueError, match="must be well below t2"):
            execute_jobs(jobs, num_workers=1)
        jobs = tiny_jobs()
        jobs[-1].config.routing = "west-first"
        with pytest.raises(ValueError, match="unknown routing function"):
            execute_jobs(jobs, num_workers=1)
        assert units == []


class TestCacheIntegration:
    def test_second_run_all_hits(self, tmp_path):
        jobs = tiny_jobs()
        warm = ResultCache(tmp_path)
        first = execute_jobs(jobs, num_workers=1, cache=warm)
        assert warm.size() == len(jobs)

        cold = ResultCache(tmp_path)
        second = execute_jobs(jobs, num_workers=1, cache=cold)
        assert cold.hits == len(jobs)
        assert cold.misses == 0
        for key in first:
            assert second[key].cell == first[key].cell
            assert second[key].source == "cache"

    def test_overlapping_sweeps_share_cells(self, tmp_path):
        """A different table with the same resolved configs hits the cache
        (the hash keys content, not grid position)."""
        cache = ResultCache(tmp_path)
        execute_jobs(tiny_jobs(tiny_spec(table_id=2)), num_workers=1,
                     cache=cache)
        cache.hits = cache.misses = 0
        outcomes = execute_jobs(tiny_jobs(tiny_spec(table_id=3)),
                                num_workers=1, cache=cache)
        assert cache.hits == len(outcomes)

    def test_cache_hits_recorded_in_checkpoint(self, tmp_path):
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path / "cache")
        execute_jobs(jobs, num_workers=1, cache=cache)
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        execute_jobs(jobs, num_workers=1, cache=cache, checkpoint=ck)
        sources = [r["source"] for r in ck.records() if r["kind"] == "cell"]
        assert sources == ["cache"] * len(jobs)


class TestResume:
    def test_finished_cells_not_rerun(self, tmp_path, monkeypatch):
        jobs = tiny_jobs()
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        # Simulate an interrupted campaign: only the first cell finished.
        first = execute_jobs(jobs[:1], num_workers=1, checkpoint=ck)

        executed = spy_on_units(monkeypatch)
        resumed = execute_jobs(jobs, num_workers=1, checkpoint=ck,
                               resume=True)

        assert executed == [[j.key] for j in jobs[1:]]
        assert resumed[jobs[0].key].source == "resume"
        assert resumed[jobs[0].key].cell == first[jobs[0].key].cell

    def test_stale_manifest_entries_rerun(self, tmp_path):
        """A manifest record whose config hash no longer matches (e.g.
        different seed) must not be reused."""
        jobs = tiny_jobs()
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        ck.record_cell(
            key=jobs[0].key,
            config_hash="f" * 64,  # some other configuration
            cell=cell_to_dict(
                execute_jobs(jobs[:1], num_workers=1)[jobs[0].key].cell
            ),
            wall_time=0.1,
            worker="serial",
            source="run",
        )
        outcomes = execute_jobs(jobs, num_workers=1, checkpoint=ck,
                                resume=True)
        assert all(o.source == "run" for o in outcomes.values())

    def test_resume_without_flag_ignores_manifest(self, tmp_path):
        jobs = tiny_jobs()
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        execute_jobs(jobs, num_workers=1, checkpoint=ck)
        outcomes = execute_jobs(jobs, num_workers=1, checkpoint=ck)
        assert all(o.source == "run" for o in outcomes.values())


class TestStoredEntryValidation:
    """Torn or hand-edited stored entries downgrade to a re-run."""

    def test_malformed_manifest_entry_reruns(self, tmp_path):
        jobs = tiny_jobs()
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        ck.record_cell(
            key=jobs[0].key,
            config_hash=jobs[0].config_hash,
            cell={"percentage": "not-a-number"},  # wrong shape
            wall_time=0.1,
            worker="serial",
            source="run",
        )
        with pytest.warns(RuntimeWarning, match="malformed resume entry"):
            outcomes = execute_jobs(
                jobs[:1], num_workers=1, checkpoint=ck, resume=True
            )
        assert outcomes[jobs[0].key].source == "run"

    def test_malformed_cache_entry_reruns(self, tmp_path):
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path)
        # Valid JSON object, but not a result payload (e.g. a partially
        # migrated entry): must warn, miss, and be healed by the re-run.
        cache.put(jobs[0].config_hash, {"something": "else"})
        with pytest.warns(RuntimeWarning, match="malformed cache entry"):
            outcomes = execute_jobs(jobs[:1], num_workers=1, cache=cache)
        assert outcomes[jobs[0].key].source == "run"
        healed = execute_jobs(jobs[:1], num_workers=1, cache=cache)
        assert healed[jobs[0].key].source == "cache"
        assert healed[jobs[0].key].cell == outcomes[jobs[0].key].cell


class TestBatchGrouping:
    """Eligible cells equal modulo detector cell share one trajectory."""

    def test_batch_cells_equal_event_cells(self, monkeypatch):
        """A default-engine ``recovery="none"`` campaign folds without
        being asked to, and every folded cell equals its solo run."""
        jobs = tiny_jobs(base=batch_base())
        assert {job.config.engine for job in jobs} == {"event"}

        units = spy_on_units(monkeypatch)
        batched = execute_jobs(jobs, num_workers=1)

        # One shared run per load level (the two thresholds fold).
        assert len(units) == 2
        assert all(len(keys) == 2 for keys in units)
        for job in jobs:
            solo = cell_from_stats(Simulator(job.config).run(), job.rate)
            assert batched[job.key].cell == solo, job.key
            assert batched[job.key].engine == "batch"

    def test_batch_pool_matches_serial(self):
        jobs = tiny_jobs(base=batch_base())
        serial = execute_jobs(jobs, num_workers=1)
        pooled = execute_jobs(jobs, num_workers=2)
        for key in serial:
            assert serial[key].cell == pooled[key].cell

    def test_batch_results_cached_per_cell(self, tmp_path):
        jobs = tiny_jobs(base=batch_base())
        cache = ResultCache(tmp_path)
        first = execute_jobs(jobs, num_workers=1, cache=cache)
        assert cache.size() == len(jobs)
        second = execute_jobs(jobs, num_workers=1, cache=cache)
        for key in first:
            assert second[key].source == "cache"
            assert second[key].cell == first[key].cell

    def test_resume_mid_group_entries_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """Grouping is a pure optimization: a ``--resume`` after a
        partial run re-groups the leftover cells (here a group loses a
        member and degrades to a single), and the stored records must
        stay byte-identical to an uninterrupted campaign's."""
        jobs = tiny_jobs(base=batch_base())

        def cell_bytes(cache):
            out = {}
            for job in jobs:
                payload = cache.get(job.config_hash)
                out[job.key] = json.dumps(
                    payload["cell"], sort_keys=True
                ).encode()
            return out

        # Uninterrupted baseline: both groups run whole.
        full_cache = ResultCache(tmp_path / "full")
        execute_jobs(jobs, num_workers=1, cache=full_cache)

        # Interrupted campaign: one member of the first group finishes,
        # then the crash; the resume re-plans around it.
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        part_cache = ResultCache(tmp_path / "part")
        execute_jobs(jobs[:1], num_workers=1, cache=part_cache,
                     checkpoint=ck)

        units = spy_on_units(monkeypatch)
        resumed = execute_jobs(jobs, num_workers=1, cache=part_cache,
                               checkpoint=ck, resume=True)

        # The interrupted group really was re-planned: its surviving
        # member ran in no unit this time, and its partner ran alone.
        assert jobs[0].key not in {k for keys in units for k in keys}
        assert sorted(len(keys) for keys in units) == [1, 2]
        assert resumed[jobs[0].key].source == "resume"
        assert cell_bytes(part_cache) == cell_bytes(full_cache)


#: A cache file and a manifest line exactly as the commit before the
#: one-record refactor wrote them (``<HASH>`` stands for the job's
#: config hash, which names the cache file and keys the manifest line).
PARENT_CACHE_ENTRY = (
    '{"cell": {"detections": 0, "false_detections": 0, '
    '"had_true_deadlock": false, "injected": 192, "injection_rate": 0.5, '
    '"messages_detected": 0, "percentage": 0.0, "throughput": 0.4825, '
    '"true_detections": 0}, "engine": "event", "key": "table2/th8/load0/s", '
    '"phase_time": {"checks": 0.0, "generation": 0.0, "injection": 0.0, '
    '"movement": 0.0, "probes": 0.0, "routing": 0.0}, '
    '"wall_time": 0.020920826002111426, "worker": "serial"}'
)
PARENT_MANIFEST_LINE = (
    '{"cell": {"detections": 0, "false_detections": 0, '
    '"had_true_deadlock": false, "injected": 192, "injection_rate": 0.5, '
    '"messages_detected": 0, "percentage": 0.0, "throughput": 0.4825, '
    '"true_detections": 0}, "config_hash": "<HASH>", "engine": "event", '
    '"key": "table2/th8/load0/s", "kind": "cell", '
    '"phase_time": {"checks": 0.0, "generation": 0.0, "injection": 0.0, '
    '"movement": 0.0, "probes": 0.0, "routing": 0.0}, "source": "run", '
    '"wall_time": 0.020920826002111426, "worker": "serial"}\n'
)


def mixed_jobs():
    """Recovery-on cells (units of one) plus a foldable grid."""
    return tiny_jobs() + tiny_jobs(tiny_spec(table_id=3), batch_base())


class TestOneRecord:
    """A worker's record is the cache entry is the manifest line."""

    @pytest.mark.parametrize("base", [tiny_base, batch_base])
    def test_worker_record_is_what_both_stores_hold(
        self, base, tmp_path, monkeypatch
    ):
        jobs = tiny_jobs(base=base())
        returned = {}
        original = executor_module._run_unit

        def spy(payload, worker=None):
            records = original(payload, worker)
            returned.update({record["key"]: record for record in records})
            return records

        monkeypatch.setattr(executor_module, "_run_unit", spy)
        cache = ResultCache(tmp_path / "cache")
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        outcomes = execute_jobs(jobs, num_workers=1, cache=cache, checkpoint=ck)

        folded = base is batch_base
        assert {o.engine for o in outcomes.values()} == (
            {"batch"} if folded else {"event"}
        )
        lines = {r["key"]: r for r in ck.records() if r["kind"] == "cell"}
        for job in jobs:
            record = returned[job.key]
            assert set(record) == {
                "key", "cell", "wall_time", "worker", "engine", "phase_time"
            }
            on_disk = json.loads(cache.path_for(job.config_hash).read_text())
            assert on_disk == record
            line = dict(lines[job.key])
            assert line.pop("kind") == "cell"
            assert line.pop("config_hash") == job.config_hash
            assert line.pop("source") == "run"
            assert line == record
            assert outcomes[job.key].record() == record

    def test_run_cache_and_resume_agree(self, tmp_path):
        job = tiny_jobs()[0]
        cache = ResultCache(tmp_path / "cache")
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        ran = execute_jobs([job], num_workers=1, cache=cache)[job.key]
        hit = execute_jobs([job], num_workers=1, cache=cache,
                           checkpoint=ck)[job.key]
        resumed = execute_jobs([job], num_workers=1, checkpoint=ck,
                               resume=True)[job.key]
        assert [o.source for o in (ran, hit, resumed)] == [
            "run", "cache", "resume"
        ]
        assert [o.worker for o in (ran, hit, resumed)] == [
            "serial", "cache", "manifest"
        ]
        for other in (hit, resumed):
            assert other.cell == ran.cell
            assert other.engine == ran.engine == "event"
            assert other.phase_time == ran.phase_time
            assert other.wall_time == ran.wall_time

    def test_parent_commit_cache_entry_is_a_hit(self, tmp_path, monkeypatch):
        job = tiny_jobs()[0]
        cache = ResultCache(tmp_path)
        path = cache.path_for(job.config_hash)
        path.parent.mkdir(parents=True)
        path.write_text(PARENT_CACHE_ENTRY)
        units = spy_on_units(monkeypatch)
        outcome = execute_jobs([job], num_workers=1, cache=cache)[job.key]
        assert units == []
        assert (cache.hits, cache.misses) == (1, 0)
        assert outcome.source == "cache"
        assert outcome.engine == "event"
        assert outcome.wall_time == 0.020920826002111426
        assert outcome.cell == run_cell(
            tiny_base(), tiny_spec(), job.threshold, job.size, job.rate
        )

    def test_parent_commit_manifest_line_resumes(self, tmp_path, monkeypatch):
        job = tiny_jobs()[0]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            PARENT_MANIFEST_LINE.replace("<HASH>", job.config_hash)
        )
        units = spy_on_units(monkeypatch)
        outcome = execute_jobs(
            [job], num_workers=1, checkpoint=CampaignCheckpoint(manifest),
            resume=True,
        )[job.key]
        assert units == []
        assert outcome.source == "resume"
        assert outcome.worker == "manifest"
        assert set(outcome.phase_time) == {
            "checks", "probes", "routing", "movement", "injection",
            "generation",
        }
        # Served, not re-recorded.
        assert manifest.read_text().count("\n") == 1

    def test_record_without_cell_downgrades(self, tmp_path):
        job = tiny_jobs()[0]
        stored = json.loads(PARENT_CACHE_ENTRY)
        del stored["cell"]
        with pytest.warns(RuntimeWarning, match="malformed cache entry"):
            assert JobOutcome.from_record(job, stored, "cache", "cache") is None
        cache = ResultCache(tmp_path)
        cache.put(job.config_hash, stored)
        with pytest.warns(RuntimeWarning, match="malformed cache entry"):
            outcome = execute_jobs([job], num_workers=1, cache=cache)[job.key]
        assert outcome.source == "run"

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_no_stats_round_trip(self, num_workers, monkeypatch):
        """Nothing serializes a ``SimulationStats``: the worker derives
        the cell where the stats are and ships the record."""
        from repro.metrics.stats import SimulationStats

        def boom(*args, **kwargs):
            raise AssertionError("SimulationStats was serialized")

        monkeypatch.setattr(SimulationStats, "to_dict", boom)
        monkeypatch.setattr(SimulationStats, "from_dict", boom)
        jobs = mixed_jobs()
        # (The spy is a closure, which a pool cannot pickle; forked
        # workers inherit the patched SimulationStats regardless.)
        units = spy_on_units(monkeypatch) if num_workers == 1 else None
        outcomes = execute_jobs(jobs, num_workers=num_workers)
        assert len(outcomes) == len(jobs)
        assert {o.engine for o in outcomes.values()} == {"event", "batch"}
        if units is not None:
            # Units of one first, then the groups — one entry point.
            assert [len(keys) for keys in units] == [1, 1, 1, 1, 2, 2]
