"""Workload: glue between the traffic config and the simulator.

Converts a :class:`~repro.network.config.TrafficConfig` into live pattern /
length objects and turns the paper's flits/cycle/node injection rate into a
Bernoulli per-cycle message generation probability:

    P(generate this cycle) = injection_rate / mean_message_length

so the *offered* load in flits/cycle/node equals the configured rate.
"""

from __future__ import annotations

from repro.network.config import TrafficConfig
from repro.network.topology import Topology
from repro.traffic.lengths import LengthSpec, make_length_spec
from repro.traffic.patterns import TrafficPattern, make_pattern


class Workload:
    """Live pattern, lengths and generation probability for one simulation.

    The simulator's generation phase draws from them.

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
