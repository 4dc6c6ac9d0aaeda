"""Saturation-point estimation.

The paper expresses its operating points as injection rates up to "the
saturation point" of each traffic pattern (its tables' highest load is
annotated "(saturated)").  Our substrate saturates at different absolute
rates than the authors' testbed, so the experiment harness places its loads
at the same *fractions* of saturation the paper used.  It reads the
saturation rate of each pattern from a calibration table
(``repro.experiments.spec.CALIBRATED_SATURATION_*``), whose values this
search measured (``repro-experiments saturation``).

Saturation here means the classic throughput definition: the offered load
at which accepted throughput stops tracking offered load (within
``tolerance``).  For permutation patterns the *effective* offered load is
scaled by the fraction of nodes that actually send (fixed points of the
permutation stay silent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.network.config import SimulationConfig


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of a saturation search."""

    #: Offered load (flits/cycle/node) at which throughput stops tracking.
    saturation_rate: float
    #: Accepted throughput measured at that rate.
    saturation_throughput: float
    #: The (rate, throughput) samples taken during the search.
    samples: List[tuple]


def measure_throughput(config: SimulationConfig, rate: float) -> float:
    """Accepted throughput (flits/cycle/node) at one offered rate."""
    # Imported here: repro.analysis is imported by the simulator module,
    # so a module-level import would be cyclic.
    from repro.network.simulator import Simulator

    cfg = config.replace()
    cfg.traffic.injection_rate = rate
    cfg.detector = cfg.detector  # keep configured detector/recovery
    stats = Simulator(cfg).run()
    return stats.throughput()


def find_saturation(
    config: SimulationConfig,
    low: float = 0.05,
    high: Optional[float] = None,
    tolerance: float = 0.05,
    steps: int = 7,
) -> SaturationResult:
    """Estimate the saturation rate for ``config``'s workload.

    Doubles the offered rate from ``low`` until accepted throughput falls
    short of offered by more than ``tolerance`` (relative), then refines
    with a bisection between the last tracking rate and the first
    non-tracking rate.

    Args:
        config: base configuration (its ``traffic.injection_rate`` is
            ignored).  Use short warmup/measure windows; saturation search
            only needs coarse throughput estimates.
        low: starting offered rate, assumed below saturation.
        high: optional upper bound; defaults to growing by doubling.
        tolerance: relative shortfall that marks saturation.
        steps: bisection refinement steps.
    """
    samples: List[tuple] = []
    # Fixed points of permutation patterns never send; track against the
    # effective offered load.
    from repro.traffic.patterns import make_pattern

    pattern = make_pattern(
        config.traffic.pattern,
        config.build_topology(),
        **config.traffic.pattern_params,
    )
    sending = pattern.sending_fraction()

    def tracks(rate: float) -> bool:
        thr = measure_throughput(config, rate)
        samples.append((rate, thr))
        return thr >= rate * sending * (1.0 - tolerance)

    lo = low
    if not tracks(lo):
        # Even the starting rate saturates; report it directly.
        return SaturationResult(lo, samples[-1][1], samples)
    hi = high if high is not None else lo * 2
    while tracks(hi):
        lo = hi
        hi *= 2
        if hi > 4.0:  # physical limit: ~1 flit/cycle/node per port set
            break
    for _ in range(steps):
        mid = (lo + hi) / 2
        if tracks(mid):
            lo = mid
        else:
            hi = mid
    # lo is the highest tracking rate found; throughput there is the
    # saturation throughput estimate.
    thr_lo = max(thr for rate, thr in samples if rate <= lo + 1e-9)
    return SaturationResult(lo, thr_lo, samples)
