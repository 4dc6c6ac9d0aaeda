"""Tests for the campaign manifest (checkpoint + summary report)."""

import shutil

from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    render_summary,
    summarize_manifest,
)

HASH_A = "a" * 64
HASH_B = "b" * 64


def record(ck, key="table2/th8/load0/s", config_hash=HASH_A, wall=0.5,
           worker="serial", source="run"):
    ck.record_cell(
        key=key,
        config_hash=config_hash,
        cell={"percentage": 1.0},
        wall_time=wall,
        worker=worker,
        source=source,
    )


class TestCampaignCheckpoint:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        ck = CampaignCheckpoint(path)
        ck.start(table_id=2, total=4)
        record(ck)
        reopened = CampaignCheckpoint(path)
        kinds = [r["kind"] for r in reopened.records()]
        assert kinds == ["campaign", "cell"]

    def test_completed_keyed_by_config_hash(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        record(ck, config_hash=HASH_A)
        record(ck, key="table2/th32/load0/s", config_hash=HASH_B)
        done = ck.completed()
        assert set(done) == {HASH_A, HASH_B}
        assert done[HASH_A]["key"] == "table2/th8/load0/s"

    def test_latest_record_wins(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        record(ck, wall=1.0)
        record(ck, wall=2.0)
        assert ck.completed()[HASH_A]["wall_time"] == 2.0

    def test_corrupt_tail_line_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ck = CampaignCheckpoint(path)
        record(ck)
        with path.open("a") as handle:
            handle.write('{"kind": "cell", "config_hash": "tru')  # crash cut
        assert len(ck.records()) == 1
        assert set(ck.completed()) == {HASH_A}
        # ... and the restarted writer's first record starts on a line of
        # its own.
        ck = CampaignCheckpoint(path)
        record(ck, key="table2/th32/load0/s", config_hash=HASH_B)
        assert set(ck.completed()) == {HASH_A, HASH_B}

    def test_completed_is_parsed_once_and_kept_current(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "m.jsonl"
        record(CampaignCheckpoint(path), wall=1.0)
        with path.open("a") as handle:
            handle.write('{"kind": "cell", "config_hash": "tru')  # crash cut
        reads = []
        original = CampaignCheckpoint.records
        monkeypatch.setattr(
            CampaignCheckpoint,
            "records",
            lambda self: reads.append(1) or original(self),
        )
        ck = CampaignCheckpoint(path)
        assert set(ck.completed()) == {HASH_A}  # the torn tail is skipped
        record(ck, wall=2.0)
        record(ck, key="table2/th32/load0/s", config_hash=HASH_B)
        done = ck.completed()
        assert len(reads) == 1
        assert done[HASH_A]["wall_time"] == 2.0  # the latest record wins
        assert set(done) == {HASH_A, HASH_B}
        # The kept map is what a fresh parse of the file gives.
        assert CampaignCheckpoint(path).completed() == done

    def test_completed_is_a_snapshot(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "m.jsonl")
        record(ck)
        ck.completed().clear()
        assert set(ck.completed()) == {HASH_A}

    def test_append_recreates_a_vanished_directory(self, tmp_path):
        path = tmp_path / "run" / "m.jsonl"
        ck = CampaignCheckpoint(path)
        record(ck)
        shutil.rmtree(path.parent)
        record(ck, key="table2/th32/load0/s", config_hash=HASH_B)
        assert [r["config_hash"] for r in ck.records()] == [HASH_B]

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record(CampaignCheckpoint(path))
        fresh = CampaignCheckpoint(path, fresh=True)
        assert fresh.records() == []

    def test_missing_file_is_empty(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "nope.jsonl")
        assert ck.records() == []
        assert ck.completed() == {}


class TestSummary:
    def test_summarize_counts_and_telemetry(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ck = CampaignCheckpoint(path)
        ck.start(table_id=2, total=3)
        record(ck, key="table2/th8/load0/s", config_hash=HASH_A,
               wall=0.5, worker="pid10", source="run")
        record(ck, key="table2/th32/load0/s", config_hash=HASH_B,
               wall=1.5, worker="pid11", source="run")
        record(ck, key="table3/th8/load0/s", config_hash="c" * 64,
               wall=0.0, worker="cache", source="cache")
        summary = summarize_manifest(path)
        assert summary.total_cells == 3
        assert summary.campaigns_started == 1
        assert summary.by_source == {"run": 2, "cache": 1}
        assert summary.by_table == {"table2": 2, "table3": 1}
        assert summary.wall_time_total == 2.0
        assert summary.wall_time_max == 1.5
        assert summary.slowest_key == "table2/th32/load0/s"
        assert summary.by_worker["pid10"] == 1

    def test_render_summary(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ck = CampaignCheckpoint(path)
        record(ck, wall=0.25)
        text = render_summary(summarize_manifest(path))
        assert "cells completed" in text
        assert "run=1" in text
        assert "table2=1" in text

    def test_render_empty_manifest(self, tmp_path):
        text = render_summary(summarize_manifest(tmp_path / "none.jsonl"))
        assert "empty" in text
