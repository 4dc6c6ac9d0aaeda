"""The manifest's write path: one append handle per campaign call, one
flushed line per record in ``json.dumps(record, sort_keys=True)`` form,
and no descriptor left open when the call returns or raises."""

import builtins
import io
import json
import os
import sys

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.engine import run_campaign
from repro.campaign.executor import execute_jobs
from repro.campaign.jobs import cell_to_dict, enumerate_table_jobs
from repro.experiments.spec import (
    CALIBRATED_SATURATION_QUICK,
    TABLE_SPECS,
    base_config,
    quick_spec,
)

#: A 4x4 torus has no calibrated rate; these tests run at the 64-node one.
SATURATIONS = {"uniform": CALIBRATED_SATURATION_QUICK["uniform"]}


def two_quick_tables():
    """Tables 1 and 2 in their quick shape (24 cells each) on a 4x4 torus
    with 50-cycle windows: the manifest's traffic, not the figures."""
    base = base_config(full=False)
    base.radix = 4
    base.warmup_cycles, base.measure_cycles = 10, 40
    return [quick_spec(TABLE_SPECS[1]), quick_spec(TABLE_SPECS[2])], base


def planned_jobs(specs, base):
    return [
        job
        for spec in specs
        for job in enumerate_table_jobs(spec, base, SATURATIONS[spec.pattern])[1]
    ]


def count_opens(monkeypatch, path):
    """Record the mode of every ``open`` of ``path`` from now on."""
    target = os.fspath(path)
    real_open = io.open
    modes = []

    def spy(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and os.fspath(file) == target:
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    return modes


def open_descriptors_to(path):
    """Paths of this process's open descriptors that name ``path``."""
    target = os.path.realpath(path)
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the descriptor listdir itself used, now closed
        if link == target:
            found.append(link)
    return found


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """Tables 1 and 2 simulated once into a store every test reads."""
    specs, base = two_quick_tables()
    root = tmp_path_factory.mktemp("store")
    run_campaign(specs, base, saturations=SATURATIONS, jobs=1,
                 cache=ResultCache(str(root)))
    return specs, base, root


class TestOneHandlePerCall:
    def test_warm_campaign_opens_its_manifest_once_per_call(
        self, warm_store, tmp_path, monkeypatch
    ):
        specs, base, root = warm_store
        total = sum(spec.cell_count() for spec in specs)
        path = tmp_path / "m.jsonl"
        modes = count_opens(monkeypatch, path)

        cache = ResultCache(str(root))
        run_campaign(specs, base, saturations=SATURATIONS, jobs=1, cache=cache,
                     checkpoint=CampaignCheckpoint(path, fresh=True))
        assert (cache.hits, cache.misses) == (total, 0)
        # One append handle for 2 headers and 48 cell lines.
        assert modes == ["a"]

        # A resumed call reads the manifest, looks at its last byte and
        # appends its headers through one handle.
        del modes[:]
        run_campaign(specs, base, saturations=SATURATIONS, jobs=1,
                     checkpoint=CampaignCheckpoint(path), resume=True)
        assert modes.count("a") == 1
        assert len(modes) <= 3

        # A direct executor call holds its own handle.
        del modes[:]
        execute_jobs(planned_jobs(specs, base), num_workers=1,
                     cache=ResultCache(str(root)),
                     checkpoint=CampaignCheckpoint(path))
        assert modes == ["rb", "a"]
        monkeypatch.undo()

        kinds = [r["kind"] for r in CampaignCheckpoint(path).records()]
        assert kinds == (
            ["campaign"] * 2 + ["cell"] * total  # the warm call
            + ["campaign"] * 2                   # the resumed call
            + ["cell"] * total                   # the executor call
        )

    def test_lines_are_sorted_key_json_in_resolution_order(
        self, warm_store, tmp_path
    ):
        specs, base, root = warm_store
        path = tmp_path / "m.jsonl"
        tables = run_campaign(specs, base, saturations=SATURATIONS, jobs=1,
                              cache=ResultCache(str(root)),
                              checkpoint=CampaignCheckpoint(path, fresh=True))
        lines = path.read_text().split("\n")
        assert lines.pop() == ""  # every line ends in a newline
        records = [json.loads(line) for line in lines]
        assert lines == [json.dumps(r, sort_keys=True) for r in records]

        headers, cells = records[: len(specs)], records[len(specs):]
        assert headers == [
            {"kind": "campaign", "table_id": s.table_id, "total": s.cell_count()}
            for s in specs
        ]
        jobs = planned_jobs(specs, base)
        assert [r["key"] for r in cells] == [job.key for job in jobs]
        assert [r["config_hash"] for r in cells] == [
            job.config_hash for job in jobs
        ]
        for record, job in zip(cells, jobs):
            table = tables[job.table_id]
            cell = table.cell(job.threshold, job.load_index, job.size)
            assert record["cell"] == cell_to_dict(cell)
            assert (record["source"], record["worker"]) == ("cache", "cache")

        # Cache files are in the same encoding.
        cache = ResultCache(str(root))
        for key in cache.keys():
            text = cache.path_for(key).read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True)


class TestHandleClosedOnRaise:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/fd"
    )
    def test_unit_raising_mid_campaign(self, tmp_path, monkeypatch):
        """Every cell finished before a live unit raises is on disk, and
        no descriptor to the manifest outlives the call."""
        specs, base = two_quick_tables()
        path = tmp_path / "m.jsonl"
        run_unit = executor_module._run_unit
        ran, held, on_disk = [], [], []

        def dies_after_five(payload, worker=None):
            if len(ran) == 5:
                raise KeyboardInterrupt
            # The campaign holds its handle while it runs, and every cell
            # it finished so far is already flushed.
            held.append(len(open_descriptors_to(path)))
            on_disk.append(path.read_text().count('"kind": "cell"'))
            ran.append(payload["keys"])
            return run_unit(payload, worker)

        monkeypatch.setattr(executor_module, "_run_unit", dies_after_five)
        # Kept alive past the call, as the CLI keeps it: a handle left
        # open is not closed by the checkpoint being collected.
        checkpoint = CampaignCheckpoint(path)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, base, saturations=SATURATIONS, jobs=1,
                         checkpoint=checkpoint)
        assert held == [1] * 5
        # Each unit is a threshold chain: all its cells land together.
        assert on_disk == [sum(map(len, ran[:i])) for i in range(5)]
        assert open_descriptors_to(path) == []
        cells = [r for r in checkpoint.records() if r["kind"] == "cell"]
        assert [r["key"] for r in cells] == [key for keys in ran for key in keys]
