"""Tests for the command-line interface (monkeypatched to tiny runs)."""

import dataclasses

import pytest

import repro.campaign.engine as engine_module
from repro.experiments import cli, report, runner
from repro.experiments.runner import CellResult, TableResult, run_cell
from repro.experiments.spec import (
    DEFAULT_SEED,
    TABLE_SPECS,
    base_config,
    quick_spec,
    table_spec,
)


def fake_result(table_id: int) -> TableResult:
    spec = quick_spec(TABLE_SPECS[table_id])
    result = TableResult(spec=spec, rates=tuple(0.1 * (i + 1) for i in
                                                range(len(spec.load_fractions))))
    result.cells = {
        t: {
            (i, s): CellResult(0.123, 1, 1, 0, 1, 100, 0.4, 0.4, False)
            for i in range(len(result.rates))
            for s in spec.sizes
        }
        for t in spec.thresholds
    }
    return result


@pytest.fixture
def patched(monkeypatch):
    calls = []

    def fake_run_table(spec, base, saturation=None, progress=None,
                       **campaign_kwargs):
        calls.append(spec.table_id)
        if progress:
            progress(1, 1)
        return fake_result(spec.table_id)

    # ``table``/``compare`` call run_table; ``all`` reaches it through
    # run_campaign.
    monkeypatch.setattr(cli, "run_table", fake_run_table)
    monkeypatch.setattr(engine_module, "run_table", fake_run_table)
    return calls


class TestCLI:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 7" in out
        assert "Table 8" in out

    def test_table_command(self, patched, capsys):
        assert cli.main(["table", "2"]) == 0
        assert patched == [2]
        assert "Th" in capsys.readouterr().out

    def test_table_with_out_dir(self, patched, tmp_path, capsys):
        assert cli.main(["table", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table3.txt").exists()
        assert (tmp_path / "table3.json").exists()

    def test_compare_command(self, patched, capsys):
        assert cli.main(["compare", "1"]) == 0
        assert "/" in capsys.readouterr().out

    def test_all_command(self, patched, capsys):
        assert cli.main(["all"]) == 0
        assert sorted(patched) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_all_runs_tables_1_to_8_as_one_campaign(self, patched, tmp_path,
                                                    monkeypatch):
        """``all`` is the paper's Tables 1-7 plus the probe extension,
        Table 8: one ``run_campaign`` call, one file pair per table."""
        requested = []
        campaign = cli.run_campaign

        def spy(specs, base, **kwargs):
            specs = list(specs)
            requested.extend(spec.table_id for spec in specs)
            return campaign(specs, base, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", spy)
        assert cli.main(["all", "--jobs", "1", "--out", str(tmp_path)]) == 0
        assert requested == [1, 2, 3, 4, 5, 6, 7, 8]
        assert sorted(p.name for p in tmp_path.glob("table*.json")) == [
            f"table{tid}.json" for tid in requested
        ]
        assert "eight tables" in cli.build_parser().format_help()

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["table", "9"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize(
        "argv",
        [["table", "2"], ["compare", "2"], ["all"], ["saturation"],
         ["latency"]],
        ids=lambda argv: argv[0],
    )
    def test_engine_flag_is_gone(self, argv, patched):
        """The engine is not a user option: argparse rejects the flag."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--engine", "event"])
        assert excinfo.value.code == 2
        assert patched == []


class TestSaveResult:
    def test_save_writes_txt_and_json(self, tmp_path):
        path = report.save_result(fake_result(2), str(tmp_path))
        assert path.read_text().startswith("Table 2")
        assert (tmp_path / "table2.json").exists()


class TestTableSpecLookup:
    def test_bad_table_id(self):
        with pytest.raises(ValueError, match="no such table"):
            table_spec(0)

    def test_quick_vs_full(self):
        quick = table_spec(2, full=False)
        full = table_spec(2, full=True)
        assert len(quick.thresholds) < len(full.thresholds)


class TestFiguresCommand:
    def test_figures_replays_paper_outcomes(self, capsys):
        assert cli.main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "figure 2: NDM detections = none" in out
        assert "figure 3: NDM detections = ['B']" in out
        assert "figure 5: detections = ['B', 'C']" in out
        assert "simultaneous blocking" in out


class TestLatencyCommand:
    def test_latency_sweep_prints_curve(self, capsys, monkeypatch):
        from repro.experiments import cli as cli_module

        # Shrink the sweep: tiny base config, few steps.
        def tiny_base(full=None):
            from tests.conftest import small_config

            config = small_config()
            config.warmup_cycles = 100
            config.measure_cycles = 400
            return config

        monkeypatch.setattr(cli_module, "base_config", tiny_base)
        monkeypatch.setattr(
            "repro.experiments.runner.calibrated_saturation",
            lambda full=None: {"uniform": 1.0},
        )
        assert cli.main(["latency", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "offered" in out
        assert "accepted" in out


class TestProgressPrinter:
    def test_completed_run_ends_line(self, capsys):
        progress = cli._progress_printer("t")
        progress(1, 2)
        progress(2, 2)
        progress.close()
        err = capsys.readouterr().err
        assert err.endswith("\n")
        assert err.count("\n") == 1  # close() after completion adds nothing

    def test_aborted_run_gets_trailing_newline(self, capsys):
        progress = cli._progress_printer("t")
        progress(1, 3)  # run dies here (Ctrl-C / exception)
        progress.close()
        err = capsys.readouterr().err
        assert err.endswith("\n")

    def test_close_idempotent(self, capsys):
        progress = cli._progress_printer("t")
        progress(1, 3)
        progress.close()
        progress.close()
        assert capsys.readouterr().err.count("\n") == 1

    def test_abort_newline_reaches_stderr_from_command(self, monkeypatch,
                                                       capsys):
        def exploding_run_table(spec, base, progress=None, **kwargs):
            progress(1, 4)
            raise RuntimeError("boom mid-table")

        monkeypatch.setattr(cli, "run_table", exploding_run_table)
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["table", "2"])
        assert capsys.readouterr().err.endswith("\n")


class TestCampaignFlags:
    def test_flags_forwarded_to_regenerate(self, monkeypatch, tmp_path):
        seen = {}

        def spy(spec, base, progress=None, **kwargs):
            seen.update(kwargs, table_id=spec.table_id)
            return fake_result(spec.table_id)

        monkeypatch.setattr(cli, "run_table", spy)
        assert cli.main(["table", "2", "--jobs", "3",
                         "--cache-dir", str(tmp_path), "--resume"]) == 0
        assert seen["jobs"] == 3
        assert seen["resume"] is True
        assert str(seen["cache"].root) == str(tmp_path)
        assert seen["checkpoint"].path == tmp_path / cli.MANIFEST_NAME

    def test_default_jobs_is_cpu_count(self, monkeypatch):
        seen = {}

        def spy(spec, base, progress=None, **kwargs):
            seen.update(kwargs)
            return fake_result(spec.table_id)

        monkeypatch.setattr(cli, "run_table", spy)
        assert cli.main(["table", "2"]) == 0
        import os
        assert seen["jobs"] == (os.cpu_count() or 1)
        assert seen["cache"] is None
        assert seen["checkpoint"] is None

    def test_resume_without_cache_dir_uses_default(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dflt"))
        seen = {}

        def spy(spec, base, progress=None, **kwargs):
            seen.update(kwargs)
            return fake_result(spec.table_id)

        monkeypatch.setattr(cli, "run_table", spy)
        assert cli.main(["table", "2", "--resume"]) == 0
        assert str(seen["cache"].root) == str(tmp_path / "dflt")

    def test_fresh_run_truncates_manifest(self, monkeypatch, tmp_path):
        manifest = tmp_path / cli.MANIFEST_NAME
        manifest.write_text('{"kind": "campaign", "table_id": 2, "total": 1}\n')

        monkeypatch.setattr(
            cli, "run_table",
            lambda spec, base, progress=None, **kw: fake_result(spec.table_id),
        )
        assert cli.main(["table", "2", "--cache-dir", str(tmp_path)]) == 0
        assert not manifest.exists() or manifest.read_text() == ""


class TestCampaignCommand:
    def test_summary_empty(self, tmp_path, capsys):
        assert cli.main(["campaign", "summary",
                         "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "empty" in out
        assert "cached results" in out

    def test_summary_reports_manifest(self, tmp_path, capsys):
        from repro.campaign import CampaignCheckpoint

        ck = CampaignCheckpoint(tmp_path / cli.MANIFEST_NAME)
        ck.start(table_id=2, total=1)
        ck.record_cell(key="table2/th8/load0/s", config_hash="a" * 64,
                       cell={"percentage": 0.0}, wall_time=0.5,
                       worker="serial", source="run")
        assert cli.main(["campaign", "summary",
                         "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cells completed       : 1" in out
        assert "table2=1" in out

    def test_clear_removes_cache_dir(self, tmp_path, capsys):
        target = tmp_path / "cache"
        target.mkdir()
        (target / "junk.json").write_text("{}")
        assert cli.main(["campaign", "clear",
                         "--cache-dir", str(target)]) == 0
        assert not target.exists()

    def test_clear_missing_dir_is_noop(self, tmp_path, capsys):
        assert cli.main(["campaign", "clear",
                         "--cache-dir", str(tmp_path / "none")]) == 0
        assert "nothing to remove" in capsys.readouterr().out

    def test_nonpositive_jobs_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["table", "2", "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestDefaultSeed:
    def test_base_config_cell_equals_the_cli_cell(self, monkeypatch):
        """``run_cell(base_config(), ...)`` reproduces the cell that
        ``repro-experiments table`` prints: both read ``DEFAULT_SEED``."""
        spec = quick_spec(TABLE_SPECS[2])
        one_cell = dataclasses.replace(
            spec,
            sizes=("s",),
            load_fractions=spec.load_fractions[:1],
            paper_rates=spec.paper_rates[:1],
            thresholds=(32,),
            saturated_loads=(),
        )
        monkeypatch.setattr(cli, "table_spec", lambda table_id, full=None: one_cell)
        seen = []

        def spy(*args, **kwargs):
            seen.append(runner.run_table(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, "run_table", spy)
        assert cli.main(["table", "2", "--jobs", "1"]) == 0
        (result,) = seen
        assert base_config().seed == DEFAULT_SEED
        direct = run_cell(base_config(), one_cell, 32, "s", result.rates[0])
        assert direct.injected > 0
        assert result.cell(32, 0, "s") == direct
