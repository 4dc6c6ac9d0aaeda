"""Tests for table-level campaigns: ``run_table`` (one table, reassembled in
canonical order) and ``run_campaign`` (several tables, one plan, one
cache/manifest pass and one pool)."""

import multiprocessing

import pytest

import repro.campaign.engine as engine_module
import repro.campaign.executor as executor_module
from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    render_summary,
    summarize_manifest,
)
from repro.campaign.engine import run_campaign
from repro.experiments.report import render_table, table_to_json
from repro.experiments.runner import run_cell, run_table
from repro.experiments.spec import (
    CALIBRATED_SATURATION_QUICK,
    TABLE_SPECS,
    base_config,
    quick_spec,
)
from repro.network import batch as batch_backend
from tests.campaign.conftest import tiny_base, tiny_spec


def short_base():
    """``tiny_base`` cut to 100 cycles: these tests check plumbing, not
    detection figures."""
    base = tiny_base()
    base.warmup_cycles, base.measure_cycles = 20, 80
    return base


def three_specs():
    return [
        tiny_spec(table_id=2, mechanism="ndm"),
        tiny_spec(table_id=3, mechanism="pdm"),
        tiny_spec(table_id=4, mechanism="timeout"),
    ]


def spy_on_runs(monkeypatch):
    """Count the units the executor simulates in-process."""
    ran = []
    run_unit = executor_module._run_unit
    monkeypatch.setattr(
        executor_module,
        "_run_unit",
        lambda payload, worker=None: ran.append(payload["keys"])
        or run_unit(payload, worker),
    )
    return ran


class TestRunTableCampaign:
    """``run_table``: one table run as a campaign."""

    def test_matches_sequential_cell_by_cell(self):
        spec, base = tiny_spec(), tiny_base()
        result = run_table(spec, base, saturation=1.0, jobs=1)
        for threshold, load_index, size in spec.cell_coords():
            direct = run_cell(base, spec, threshold, size,
                              result.rates[load_index])
            assert result.cell(threshold, load_index, size) == direct

    def test_pool_render_byte_identical(self):
        spec, base = tiny_spec(), tiny_base()
        serial = run_table(spec, base, saturation=1.0, jobs=1)
        pooled = run_table(spec, base, saturation=1.0, jobs=2)
        assert render_table(serial) == render_table(pooled)
        assert table_to_json(serial) == table_to_json(pooled)

    def test_cells_in_canonical_insertion_order(self):
        spec = tiny_spec()
        result = run_table(spec, tiny_base(), saturation=1.0)
        assert tuple(result.cells) == spec.thresholds
        for row in result.cells.values():
            assert list(row) == [(0, "s"), (1, "s")]

    def test_checkpoint_records_campaign(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        spec = tiny_spec()
        run_table(spec, tiny_base(), saturation=1.0, jobs=1, checkpoint=ck)
        summary = summarize_manifest(tmp_path / "m.jsonl")
        assert summary.campaigns_started == 1
        assert summary.total_cells == spec.cell_count()

    def test_phase_times_recorded_only_when_measured(self, tmp_path):
        """An unprofiled run's ``phase_time`` is its zero-filled default:
        no manifest line carries it and the summary prints no phase
        line.  A profiled campaign records and prints them."""
        spec = tiny_spec()
        for profiled in (False, True):
            base = tiny_base()
            base.profile_phases = profiled
            path = tmp_path / f"m{int(profiled)}.jsonl"
            run_table(spec, base, saturation=1.0, jobs=1,
                      checkpoint=CampaignCheckpoint(path))
            cells = [
                r for r in CampaignCheckpoint(path).records()
                if r["kind"] == "cell"
            ]
            assert len(cells) == spec.cell_count()
            assert all(("phase_time" in r) is profiled for r in cells)
            text = render_summary(summarize_manifest(path))
            assert ("phase wall time" in text) is profiled

    def test_resume_after_torn_manifest_tail(self, tmp_path, monkeypatch):
        """A crash mid-append leaves a half-written last line; the resumed
        campaign's first record must not be glued onto the fragment (and
        skipped with it), and a second resume needs no simulation."""
        path = tmp_path / "m.jsonl"
        spec, base = tiny_spec(), tiny_base()
        first = run_table(spec, base, 1.0, jobs=1,
                          checkpoint=CampaignCheckpoint(path))
        path.write_bytes(path.read_bytes()[:-30])

        ran = spy_on_runs(monkeypatch)
        for expect_runs in (1, 0):  # the torn cell re-runs once, then never
            del ran[:]
            again = run_table(
                spec, base, 1.0, jobs=1, checkpoint=CampaignCheckpoint(path),
                resume=True,
            )
            assert render_table(again) == render_table(first)
            assert len(ran) == expect_runs
        summary = summarize_manifest(path)
        assert summary.campaigns_started == 3
        assert summary.total_cells == spec.cell_count()


class TestRunCampaign:
    def test_multiple_tables_share_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny_spec(table_id=2), tiny_spec(table_id=3)]
        results = run_campaign(specs, tiny_base(), saturations={"uniform": 1.0},
                               jobs=1, cache=cache)
        assert set(results) == {2, 3}
        # identical grids -> table 3 was served entirely from table 2's cells
        assert cache.hits == specs[1].cell_count()
        assert render_table(results[2]).splitlines()[2:] == \
            render_table(results[3]).splitlines()[2:]

    def test_one_progress_line_per_campaign(self):
        seen = []
        specs = [tiny_spec(table_id=2), tiny_spec(table_id=3, mechanism="pdm")]
        run_campaign(specs, short_base(), saturations={"uniform": 1.0}, jobs=1,
                     progress=lambda done, total: seen.append((done, total)))
        total = sum(spec.cell_count() for spec in specs)
        assert seen == [(done, total) for done in range(1, total + 1)]

    def test_resume_reads_its_manifest_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        specs = three_specs()
        first = run_campaign(specs, tiny_base(), saturations={"uniform": 1.0},
                             jobs=1, checkpoint=CampaignCheckpoint(path))

        reads, sources = [], []
        records = CampaignCheckpoint.records
        monkeypatch.setattr(
            CampaignCheckpoint,
            "records",
            lambda self: reads.append(1) or records(self),
        )
        execute = engine_module.execute_jobs

        def spy(jobs, **kwargs):
            outcomes = execute(jobs, **kwargs)
            sources.extend(o.source for o in outcomes.values())
            return outcomes

        monkeypatch.setattr(engine_module, "execute_jobs", spy)
        resumed = run_campaign(specs, tiny_base(), saturations={"uniform": 1.0},
                               checkpoint=CampaignCheckpoint(path), resume=True)
        assert len(reads) == 1
        assert sources == ["resume"] * sum(s.cell_count() for s in specs)
        assert {t: table_to_json(r) for t, r in resumed.items()} == {
            t: table_to_json(r) for t, r in first.items()
        }


def as_json(tables):
    return {t: table_to_json(r) for t, r in tables.items()}


class TestOnePlanPerCampaign:
    """Every table is planned first; one ``execute_jobs`` resolves all."""

    def test_three_tables_one_execute_call(self, monkeypatch):
        calls = []
        execute = engine_module.execute_jobs

        def spy(jobs, **kwargs):
            calls.append(sorted({job.table_id for job in jobs}))
            return execute(jobs, **kwargs)

        monkeypatch.setattr(engine_module, "execute_jobs", spy)
        results = run_campaign(three_specs(), short_base(),
                               saturations={"uniform": 1.0}, jobs=1)
        assert calls == [[2, 3, 4]]
        assert list(results) == [2, 3, 4]

    def test_pool_tables_byte_identical_and_workers_reaped(self):
        before = set(multiprocessing.active_children())
        serial = run_campaign(three_specs(), short_base(),
                              saturations={"uniform": 1.0}, jobs=1)
        pooled = run_campaign(three_specs(), short_base(),
                              saturations={"uniform": 1.0}, jobs=2)
        assert as_json(pooled) == as_json(serial)
        # The pool is shut down with wait=True: no worker outlives it.
        assert set(multiprocessing.active_children()) <= before

    def test_shared_cells_run_once_without_a_cache(self, monkeypatch):
        ran = spy_on_runs(monkeypatch)
        specs = [tiny_spec(table_id=2), tiny_spec(table_id=3)]
        results = run_campaign(specs, short_base(),
                               saturations={"uniform": 1.0}, jobs=1)
        assert sum(len(keys) for keys in ran) == specs[0].cell_count()
        assert render_table(results[2]).splitlines()[2:] == \
            render_table(results[3]).splitlines()[2:]

    def test_tables_1_2_without_recovery_fold_per_point(self, monkeypatch):
        """PDM and NDM at one (load, size) point share one trajectory:
        quick-shaped Tables 1-2 plan one group per point, not two, and
        every folded cell equals its solo run."""
        base = base_config(full=False)
        base.radix = 4
        base.warmup_cycles, base.measure_cycles = 30, 120
        base.recovery = "none"
        specs = [quick_spec(TABLE_SPECS[1]), quick_spec(TABLE_SPECS[2])]
        plans = []
        plan = batch_backend.plan_batches

        def spy(configs):
            plans.append(plan(configs))
            return plans[-1]

        monkeypatch.setattr(batch_backend, "plan_batches", spy)
        # A 4x4 torus has no calibrated rate: run at the 64-node one.
        uniform = CALIBRATED_SATURATION_QUICK["uniform"]
        tables = run_campaign(specs, base, saturations={"uniform": uniform},
                              jobs=1)
        ((groups, singles),) = plans
        points = {(load, size) for _, load, size in specs[0].cell_coords()}
        assert singles == []
        assert len(groups) == len(points) == 6
        per_point = sum(len(spec.thresholds) for spec in specs)
        assert [len(group) for group in groups] == [per_point] * len(points)
        for spec in specs:
            table = tables[spec.table_id]
            for threshold, load, size in spec.cell_coords():
                solo = run_cell(base, spec, threshold, size, table.rates[load])
                assert table.cell(threshold, load, size) == solo

    def test_resume_after_partial_multi_table_campaign(self, tmp_path,
                                                       monkeypatch):
        """A campaign killed after 4 of its 6 units (one threshold chain
        per table and load) resumes on a pool: only the other 2 run, and
        the tables equal a clean run's."""
        specs, base = three_specs(), short_base()
        reference = run_campaign(specs, base, saturations={"uniform": 1.0},
                                 jobs=1)
        path = tmp_path / "m.jsonl"
        run_unit = executor_module._run_unit
        ran = []

        def dies_after_four(payload, worker=None):
            if len(ran) == 4:
                raise KeyboardInterrupt
            ran.append(payload["keys"])
            return run_unit(payload, worker)

        monkeypatch.setattr(executor_module, "_run_unit", dies_after_four)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, base, saturations={"uniform": 1.0}, jobs=1,
                         checkpoint=CampaignCheckpoint(path))
        monkeypatch.setattr(executor_module, "_run_unit", run_unit)
        assert [len(keys) for keys in ran] == [2] * 4

        resumed = run_campaign(specs, base, saturations={"uniform": 1.0},
                               jobs=2, checkpoint=CampaignCheckpoint(path),
                               resume=True)
        assert as_json(resumed) == as_json(reference)
        summary = summarize_manifest(path)
        total = sum(spec.cell_count() for spec in specs)
        assert summary.by_source == {"run": total}
        assert summary.campaigns_started == 2 * len(specs)
