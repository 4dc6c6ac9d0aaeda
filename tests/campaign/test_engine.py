"""Tests for table-level campaigns: ``run_table`` (one table, reassembled in
canonical order) and ``run_campaign`` (several tables, one cache/manifest)."""

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
from tests.campaign.conftest import tiny_base, tiny_spec


class TestRunTableCampaign:
    """``run_table``: one table run as a campaign."""

    def test_matches_sequential_cell_by_cell(self):
        spec, base = tiny_spec(), tiny_base()
        result = run_table(spec, base, saturation=1.0)
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
        run_table(spec, tiny_base(), saturation=1.0, checkpoint=ck)
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
            run_table(spec, base, saturation=1.0,
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
        first = run_table(spec, base, 1.0, checkpoint=CampaignCheckpoint(path))
        path.write_bytes(path.read_bytes()[:-30])

        ran = []
        run_unit = executor_module._run_unit
        monkeypatch.setattr(
            executor_module,
            "_run_unit",
            lambda payload, worker=None: ran.append(payload["keys"])
            or run_unit(payload, worker),
        )
        for expect_runs in (1, 0):  # the torn cell re-runs once, then never
            del ran[:]
            again = run_table(
                spec, base, 1.0, checkpoint=CampaignCheckpoint(path), resume=True
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
        results = run_campaign(specs, tiny_base(),
                               saturations={"uniform": 1.0}, cache=cache)
        assert set(results) == {2, 3}
        # identical grids -> table 3 was served entirely from table 2's cells
        assert cache.hits == specs[1].cell_count()
        assert render_table(results[2]).splitlines()[2:] == \
            render_table(results[3]).splitlines()[2:]

    def test_progress_factory_labels_tables(self):
        seen = {}

        def factory(spec):
            def progress(done, total):
                seen.setdefault(spec.table_id, []).append((done, total))
            return progress

        run_campaign([tiny_spec(table_id=2)], tiny_base(),
                     saturations={"uniform": 1.0}, progress_factory=factory)
        assert seen[2][-1] == (4, 4)

    def test_resume_reads_its_manifest_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        specs = [
            tiny_spec(table_id=2, mechanism="ndm"),
            tiny_spec(table_id=3, mechanism="pdm"),
            tiny_spec(table_id=4, mechanism="timeout"),
        ]
        first = run_campaign(specs, tiny_base(), saturations={"uniform": 1.0},
                             checkpoint=CampaignCheckpoint(path))

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
