"""Integration tests for the table entry points on tiny grids:
``run_table`` for one table, ``run_campaign`` for several."""

import json

from repro.campaign import run_campaign
from repro.experiments.report import default_out_dir, save_result
from repro.experiments.runner import run_table
from repro.experiments.spec import TableSpec
from tests.conftest import small_config


def tiny_specs():
    return {
        1: TableSpec(
            table_id=1, title="tiny pdm", mechanism="pdm", pattern="uniform",
            sizes=("s",), load_fractions=(0.6,), paper_rates=(0.4,),
            thresholds=(8,), saturated_loads=(0,),
        ),
        2: TableSpec(
            table_id=2, title="tiny ndm", mechanism="ndm", pattern="uniform",
            sizes=("s",), load_fractions=(0.6,), paper_rates=(0.4,),
            thresholds=(8,), saturated_loads=(0,),
        ),
    }


class TestRegenerate:
    def test_regenerate_table(self):
        result = run_table(tiny_specs()[2], small_config(), saturation=1.0)
        assert set(result.cells) == {8}
        cell = result.cell(8, 0, "s")
        assert cell.injected > 0

    def test_regenerate_all(self):
        results = run_campaign(tiny_specs().values(), small_config())
        assert sorted(results) == [1, 2]
        assert results[1].spec.mechanism == "pdm"
        assert results[2].spec.mechanism == "ndm"

    def test_save_and_reload_json(self, tmp_path):
        result = run_table(tiny_specs()[2], small_config(), saturation=1.0)
        save_result(result, str(tmp_path))
        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["mechanism"] == "ndm"
        assert payload["cells"]["8"]["0:s"]["injected"] > 0

    def test_seed_changes_cells(self):
        spec = tiny_specs()[2]
        a = run_table(spec, small_config(seed=1), saturation=1.0)
        b = run_table(spec, small_config(seed=2), saturation=1.0)
        ca = a.cell(8, 0, "s")
        cb = b.cell(8, 0, "s")
        assert (ca.injected, ca.throughput) != (cb.injected, cb.throughput)

    def test_default_out_dir_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", "/tmp/custom-results")
        assert default_out_dir() == "/tmp/custom-results"
