"""Latency/throughput-vs-load curves.

The paper reports only detection percentages, but the deadlock-recovery
argument rests on the network's performance profile (deadlock recovery
permits unrestricted fully adaptive routing, which buys latency and
throughput).  This module sweeps offered load and records the classic
latency/throughput curve, used by the traffic examples, the ablation
benches and as an extension experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.network.config import SimulationConfig


@dataclass(frozen=True)
class LoadPoint:
    """One operating point of a load sweep."""

    offered: float
    throughput: float
    avg_latency: Optional[float]
    avg_network_latency: Optional[float]
    max_latency: int
    detected_percent: float
    recoveries: int
    had_deadlock: bool


@dataclass
class LoadSweep:
    """Result of sweeping offered load on one configuration."""

    points: List[LoadPoint]

    def knee(self, factor: float = 2.5) -> Optional[LoadPoint]:
        """First point whose latency exceeds ``factor`` x the base latency.

        The classic saturation-knee estimate; ``None`` if the sweep never
        reaches it.
        """
        base = None
        for point in self.points:
            if point.avg_latency is None:
                continue
            if base is None:
                base = point.avg_latency
                continue
            if point.avg_latency > factor * base:
                return point
        return None

    def rows(self) -> List[str]:
        """Fixed-width text rows (offered, accepted, latency, detection)."""
        lines = [
            f"{'offered':>8} {'accepted':>9} {'avg lat':>8} {'max lat':>8} "
            f"{'detect%':>8} {'recov':>6} {'dl':>3}"
        ]
        for p in self.points:
            lat = f"{p.avg_latency:.0f}" if p.avg_latency is not None else "-"
            lines.append(
                f"{p.offered:>8.3f} {p.throughput:>9.3f} {lat:>8} "
                f"{p.max_latency:>8} {p.detected_percent:>8.3f} "
                f"{p.recoveries:>6} {'*' if p.had_deadlock else '':>3}"
            )
        return lines


def sweep_load(
    base: SimulationConfig,
    rates: Sequence[float],
    seed: Optional[int] = None,
) -> LoadSweep:
    """Run one simulation per offered rate and collect the curve."""
    from repro.network.simulator import Simulator

    points: List[LoadPoint] = []
    for rate in rates:
        config = base.replace()
        if seed is not None:
            config.seed = seed
        config.traffic.injection_rate = rate
        stats = Simulator(config).run()
        points.append(
            LoadPoint(
                offered=rate,
                throughput=stats.throughput(),
                avg_latency=stats.average_latency(),
                avg_network_latency=stats.average_network_latency(),
                max_latency=stats.max_latency,
                detected_percent=stats.detection_percentage(),
                recoveries=stats.recoveries,
                had_deadlock=stats.had_true_deadlock(),
            )
        )
    return LoadSweep(points=points)


def default_rates(saturation: float, steps: int = 8) -> List[float]:
    """Evenly spaced offered rates from 20% to 110% of saturation."""
    if saturation <= 0:
        raise ValueError(f"saturation must be positive, got {saturation}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    low, high = 0.2 * saturation, 1.1 * saturation
    span = high - low
    return [round(low + span * i / (steps - 1), 4) for i in range(steps)]
