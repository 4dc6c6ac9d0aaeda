"""Order statistics, the chunked wall estimator, host fingerprint."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from typing import Any, Dict, List, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """n / min / quartiles / max of a sample (quartiles as the driver
    computes them: ``statistics.quantiles(values, n=4)``)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": ordered[-1],
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for n < 2)."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def undisturbed(values: Sequence[float]) -> float:
    """Lower quartile: what an operation costs when the host leaves it alone.

    Noise on a shared sandbox is one-sided — a neighbour's burst, a
    descheduled vCPU or a cold cache only ever add time — and here it is
    large: the same pure-Python loop reads 15% slower at its median than
    at its minimum, and bursts of +20..40% cover a quarter of any minute.
    A median over repetitions inherits that (ten same-seed runs of
    ``cube512-sat`` spread 11% by medians, 5-7% by low quantiles).  The
    lower quartile sits on the undisturbed floor as long as a quarter of
    the samples are clean, without being the extreme-value statistic the
    minimum is (which keeps dropping as repetitions are added).
    """
    return summarize(values)["q1"]


def chunked_wall(reps: Sequence[Sequence[float]]) -> float:
    """Wall seconds of one undisturbed pass.

    Every rep of a workload does the same work in the same order, so it
    splits into the same chunks (a fixed cycle stride, one table cell,
    one batch group).  A burst inflates whole reps by a random amount,
    which no statistic over rep totals removes; it touches only some of
    the samples of any one chunk.  The estimate is the sum over chunks
    of :func:`undisturbed` over the reps' samples of that chunk.

    Falls back to the rep totals when reps disagree on their chunk
    count (which a deterministic workload never does).
    """
    counts = {len(rep) for rep in reps}
    if len(counts) != 1:
        return undisturbed([sum(rep) for rep in reps])
    return sum(undisturbed(column) for column in zip(*reps))


def host_fingerprint() -> Dict[str, Any]:
    """What a reader needs to judge whether two runs are comparable."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "numpy": numpy_version,
        "load1": load1,
        "load_warning": load1 is not None and load1 > nproc,
    }


def format_summary(values: List[float]) -> str:
    s = summarize(values)
    return (
        f"n={s['n']} min={s['min']:.6g} q1={s['q1']:.6g} "
        f"med={s['median']:.6g} q3={s['q3']:.6g}"
    )
