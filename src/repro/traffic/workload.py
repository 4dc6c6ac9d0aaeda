"""Workload: glue between the traffic config and the simulator.

Converts a :class:`~repro.network.config.TrafficConfig` into live pattern /
length objects and turns the paper's flits/cycle/node injection rate into a
Bernoulli per-cycle message generation probability:

    P(generate this cycle) = injection_rate / mean_message_length

so the *offered* load in flits/cycle/node equals the configured rate.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.network.config import TrafficConfig
from repro.network.topology import Topology
from repro.network.types import NodeId
from repro.traffic.lengths import LengthSpec, make_length_spec
from repro.traffic.patterns import TrafficPattern, make_pattern


class Workload:
    """Live workload generator for one simulation.

    Args:
        config: the traffic section of the simulation config.
        topology: network topology (patterns need coordinates / node count).
    """

    def __init__(self, config: TrafficConfig, topology: Topology) -> None:
        self.config = config
        self.pattern: TrafficPattern = make_pattern(
            config.pattern, topology, **config.pattern_params
        )
        self.lengths: LengthSpec = make_length_spec(config.lengths)
        mean = self.lengths.mean()
        self.generation_probability = config.injection_rate / mean
        if self.generation_probability > 1.0:
            raise ValueError(
                f"injection rate {config.injection_rate} flits/cycle/node "
                f"exceeds one message per cycle at mean length {mean}; "
                "the single-queue source model cannot offer that load"
            )

    def maybe_generate(
        self, source: NodeId, rng: random.Random
    ) -> Optional[Tuple[NodeId, int]]:
        """One Bernoulli trial for ``source``; returns (dest, length) or None.

        Returns ``None`` either when the trial fails or when the pattern
        generates no traffic from this source (permutation fixed point).
        """
        if rng.random() >= self.generation_probability:
            return None
        dest = self.pattern.destination(source, rng)
        if dest is None:
            return None
        return dest, self.lengths.draw(rng)

    def describe(self) -> str:
        return (
            f"{self.config.pattern} / {self.config.lengths} @ "
            f"{self.config.injection_rate} flits/cycle/node"
        )
