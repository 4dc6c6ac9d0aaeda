"""Experiment-campaign engine: parallel, cached, resumable table runs.

The campaign package turns the embarrassingly parallel work of
regenerating the paper's tables into scheduled *jobs*:

* :mod:`repro.campaign.jobs` — grid enumeration, content hashing of
  resolved configs and the stored record of a resolved cell;
* :mod:`repro.campaign.executor` — serial or process-pool execution of
  units of work (a solo cell, or a group sharing one trajectory), one
  record per cell;
* :mod:`repro.campaign.cache` — content-addressed on-disk result store;
* :mod:`repro.campaign.checkpoint` — incremental manifest for resume
  and the ``campaign summary`` report;
* :mod:`repro.campaign.engine` — table reassembly and multi-table
  campaigns (``run_campaign``); one table runs through
  :func:`repro.experiments.runner.run_table`.
"""

from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CampaignSummary,
    render_summary,
    summarize_manifest,
)
from repro.campaign.engine import assemble_table, run_campaign
from repro.campaign.executor import (
    JobOutcome,
    default_num_workers,
    execute_jobs,
)
from repro.campaign.jobs import (
    CellJob,
    cell_from_dict,
    cell_to_dict,
    config_hash,
    enumerate_table_jobs,
    job_key,
)

__all__ = [
    "CampaignCheckpoint",
    "CampaignSummary",
    "CellJob",
    "JobOutcome",
    "ResultCache",
    "assemble_table",
    "cell_from_dict",
    "cell_to_dict",
    "config_hash",
    "default_cache_dir",
    "default_num_workers",
    "enumerate_table_jobs",
    "execute_jobs",
    "job_key",
    "render_summary",
    "run_campaign",
    "summarize_manifest",
]
