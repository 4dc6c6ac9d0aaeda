#!/usr/bin/env python3
"""Measurement spine: the repo's benchmark (see README.md beside this file).

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/spine/run.py [--smoke] [--seed N]      # every workload

With ``--workload`` the named workload is measured in this process and
the last line of standard output is the result object the driver reads.
Without it every workload runs in its own fresh process, untraced then
traced, and a combined report is printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: ``run_seconds`` in BENCHMARK.json; the default when run by hand.
DEFAULT_SECONDS = 15.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only")
    parser.add_argument("--seed", type=int, default=7,
                        help="becomes config.seed of every simulation (default 7)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed passes measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, one rep: correctness and schema only")
    parser.add_argument("--out", type=Path, default=ROOT / ".spine-out",
                        help="where result and trace files go")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in its own process, so peak RSS and the program's
    memo caches are per workload."""
    results: Dict[str, Dict[int, Dict[str, Any]]] = {}
    status = 0
    for name in names:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(args.out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit code {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            results.setdefault(name, {})[trace] = result
            if not result["correct"]:
                status = 1
    print("\n== summary (end-to-end, tracing off)")
    for name, by_trace in results.items():
        if 0 not in by_trace:
            continue
        shown = "  ".join(
            f"{metric}={entry['value']:.5g}{entry['unit']}"
            for metric, entry in by_trace[0]["metrics"].items()
        )
        verdict = "ok" if all(r["correct"] for r in by_trace.values()) else "FAILED"
        print(f"  {name:<20} {verdict:<6} {shown}")
    (args.out / "spine-report.json").write_text(json.dumps(results, indent=1))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark "
              "measures the repo it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spinelib.runner import run_workload
    from spinelib.workloads import WORKLOADS_BY_NAME

    names = list(WORKLOADS_BY_NAME)
    if args.workload is None:
        args.out.mkdir(parents=True, exist_ok=True)
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.out,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
