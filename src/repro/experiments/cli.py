"""Command-line interface for the experiment harness.

Usage examples::

    repro-experiments list
    repro-experiments table 2
    repro-experiments table 1 --full --out results/full
    repro-experiments all --out results
    repro-experiments saturation --pattern uniform
    repro-experiments compare 2
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

from repro.analysis.saturation import find_saturation
from repro.campaign import (
    CampaignCheckpoint,
    ResultCache,
    default_cache_dir,
    render_summary,
    run_campaign,
    summarize_manifest,
)
from repro.experiments.report import (
    default_out_dir,
    render_comparison,
    render_table,
    save_result,
)
from repro.experiments.runner import run_table, saturation_rate
from repro.experiments.spec import DEFAULT_SEED, TABLE_SPECS, base_config, table_spec
from repro.traffic.patterns import pattern_names

#: Manifest filename inside a campaign cache directory.
MANIFEST_NAME = "manifest.jsonl"


class _ProgressPrinter:
    """Stderr progress line; ``close()`` terminates it even on abort.

    The carriage-return rewriting leaves stderr mid-line unless the run
    reaches ``done == total``, so commands call :meth:`close` in a
    ``finally`` block to emit the trailing newline after a Ctrl-C or an
    exception as well.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.start = time.time()
        self._mid_line = False

    def __call__(self, done: int, total: int) -> None:
        elapsed = time.time() - self.start
        sys.stderr.write(
            f"\r{self.prefix}: {done}/{total} cells ({elapsed:.0f}s elapsed)"
        )
        sys.stderr.flush()
        self._mid_line = done != total
        if done == total:
            sys.stderr.write("\n")

    def close(self) -> None:
        if self._mid_line:
            sys.stderr.write("\n")
            sys.stderr.flush()
            self._mid_line = False


def _progress_printer(prefix: str) -> _ProgressPrinter:
    return _ProgressPrinter(prefix)


def _campaign_options(args: argparse.Namespace) -> dict:
    """``run_table``'s campaign keywords, from the campaign flags.

    An unset ``--jobs`` stays ``None``: the executor resolves it to one
    worker per CPU.
    """
    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = default_cache_dir()
    cache = checkpoint = None
    if cache_dir is not None:
        cache = ResultCache(cache_dir)
        checkpoint = CampaignCheckpoint(
            Path(cache_dir) / MANIFEST_NAME, fresh=not args.resume
        )
    return dict(jobs=args.jobs, cache=cache, checkpoint=checkpoint,
                resume=args.resume)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes (default: one per CPU; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="reuse finished cells from this result cache "
             f"(default cache location: {default_cache_dir()})",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its manifest "
             "(implies --cache-dir's default when none is given)",
    )


def cmd_list(args: argparse.Namespace) -> int:
    for tid, spec in sorted(TABLE_SPECS.items()):
        print(f"Table {tid}: [{spec.mechanism}] {spec.title}")
    return 0


def _base(args: argparse.Namespace):
    """The harness base config for ``--full`` and ``--seed``."""
    base = base_config(args.full)
    base.seed = args.seed
    return base


def _regenerate(args: argparse.Namespace, campaign: dict):
    """Regenerate ``args.table_id`` under the campaign flags, with a
    stderr progress line that is terminated even when the run aborts."""
    spec = table_spec(args.table_id, args.full)
    progress = _progress_printer(f"table {args.table_id}")
    try:
        return run_table(spec, _base(args), progress=progress, **campaign)
    finally:
        progress.close()


def cmd_table(args: argparse.Namespace) -> int:
    campaign = _campaign_options(args)
    cache = campaign["cache"]
    result = _regenerate(args, campaign)
    print(render_table(result))
    if cache is not None:
        print(f"\ncache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})", file=sys.stderr)
    if args.out:
        path = save_result(result, args.out)
        print(f"\nwritten to {path}")
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    campaign = _campaign_options(args)
    cache = campaign["cache"]
    specs = [table_spec(tid, args.full) for tid in sorted(TABLE_SPECS)]
    # One pool runs every table's cells at once: one line counts them all.
    progress = _progress_printer("all tables")
    try:
        results = run_campaign(specs, _base(args), progress=progress, **campaign)
    finally:
        progress.close()
    for result in results.values():
        print(render_table(result))
        print()
        if args.out:
            save_result(result, args.out)
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    result = _regenerate(args, _campaign_options(args))
    print(render_comparison(result))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir or default_cache_dir())
    manifest = cache_dir / MANIFEST_NAME
    if args.action == "summary":
        print(f"campaign cache: {cache_dir}")
        print(render_summary(summarize_manifest(manifest)))
        cache = ResultCache(cache_dir)
        print(f"cached results        : {cache.size()}")
        return 0
    if args.action == "clear":
        if cache_dir.is_dir():
            shutil.rmtree(cache_dir)
            print(f"removed {cache_dir}")
        else:
            print(f"nothing to remove at {cache_dir}")
        return 0
    raise ValueError(f"unknown campaign action {args.action!r}")


def cmd_latency(args: argparse.Namespace) -> int:
    from repro.experiments.latency import default_rates, sweep_load

    spec = table_spec(2, full=args.full)  # NDM, uniform
    config = _base(args)
    config.routing = args.routing
    if args.routing == "duato-adaptive":
        config.detector.mechanism = "none"
        config.recovery = "none"
    saturation = saturation_rate(config, spec)
    rates = default_rates(saturation, steps=args.steps)
    sweep = sweep_load(config, rates)
    print(f"routing={args.routing} uniform traffic "
          f"(saturation ~ {saturation:.3f} flits/cycle/node)")
    for row in sweep.rows():
        print(row)
    knee = sweep.knee()
    if knee is not None:
        print(f"\nlatency knee at offered ~ {knee.offered:.3f}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures.scenarios import (
        build_figure2,
        build_figure3,
        build_figure4,
        build_figure5,
        build_simultaneous_blocking,
    )

    scenario = build_figure2("ndm", threshold=16)
    scenario.run(600)
    print(f"figure 2: NDM detections = {scenario.detected_names() or 'none'}")
    scenario = build_figure2("pdm", threshold=16)
    scenario.run(600)
    print(f"figure 2: PDM detections = {sorted(set(scenario.detected_names()))}")
    scenario = build_figure3("ndm", threshold=16)
    scenario.run(400)
    print(f"figure 3: NDM detections = {scenario.detected_names()}")
    scenario = build_figure4(threshold=16)
    scenario.run(1500)
    print(f"figure 4: detections = {scenario.detected_names()}, "
          f"recoveries = {scenario.sim.stats.recoveries}")
    scenario, _ = build_figure5("ndm", threshold=16)
    scenario.run(400)
    print(f"figure 5: detections = {scenario.detected_names()}")
    scenario = build_simultaneous_blocking("ndm", threshold=16)
    scenario.run(400)
    print(f"simultaneous blocking: detections = "
          f"{sorted(set(scenario.detected_names()))}")
    return 0


def cmd_saturation(args: argparse.Namespace) -> int:
    config = base_config(args.full)
    config.warmup_cycles = 500
    config.measure_cycles = 2000
    config.traffic.pattern = args.pattern
    config.traffic.lengths = args.size
    config.detector.mechanism = "none"
    config.ground_truth_interval = 0
    result = find_saturation(config)
    print(f"pattern={args.pattern} size={args.size}")
    print(f"saturation rate       : {result.saturation_rate:.4f} flits/cycle/node")
    print(f"saturation throughput : {result.saturation_throughput:.4f}")
    for rate, thr in result.samples:
        print(f"  offered {rate:.4f} -> accepted {thr:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation tables of Lopez, Martinez & Duato "
            "(HPCA 1998) on the bundled wormhole network simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the paper tables")
    p.set_defaults(func=cmd_list)

    for name, func, help_text in (
        ("table", cmd_table, "regenerate one table"),
        ("compare", cmd_compare, "regenerate one table and compare with the paper"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("table_id", type=int, choices=sorted(TABLE_SPECS))
        p.add_argument("--full", action="store_true",
                       help="paper-scale grid (512 nodes, all thresholds)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        _add_campaign_flags(p)
        if name == "table":
            p.add_argument("--out", default=None,
                           help=f"write txt+json under this directory "
                                f"(e.g. {default_out_dir()})")
        p.set_defaults(func=func)

    p = sub.add_parser("all", help="regenerate all eight tables (1-7 and probe extension 8)")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_campaign_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_all)

    p = sub.add_parser(
        "campaign",
        help="inspect or clear the campaign cache and manifest",
    )
    p.add_argument("action", choices=("summary", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help=f"campaign cache directory "
                        f"(default: {default_cache_dir()})")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("saturation", help="measure a pattern's saturation rate")
    p.add_argument("--pattern", choices=pattern_names(), default="uniform")
    p.add_argument("--size", default="s")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_saturation)

    p = sub.add_parser(
        "latency", help="latency/throughput curve over offered load"
    )
    p.add_argument("--routing", default="fully-adaptive",
                   choices=("fully-adaptive", "duato-adaptive",
                            "dimension-order"))
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser(
        "figures", help="replay the paper's figure scenarios"
    )
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
