"""Traffic patterns and message-length workloads."""

from repro.traffic.lengths import (
    BimodalLength,
    FixedLength,
    LengthSpec,
    PAPER_SIZES,
    make_length_spec,
)
from repro.traffic.patterns import (
    BitReversalPattern,
    ButterflyPattern,
    HotSpotPattern,
    LocalityPattern,
    PerfectShufflePattern,
    TrafficPattern,
    UniformPattern,
    make_pattern,
    pattern_names,
)
from repro.traffic.workload import Workload

__all__ = [
    "BimodalLength",
    "BitReversalPattern",
    "ButterflyPattern",
    "FixedLength",
    "HotSpotPattern",
    "LengthSpec",
    "LocalityPattern",
    "PAPER_SIZES",
    "PerfectShufflePattern",
    "TrafficPattern",
    "UniformPattern",
    "Workload",
    "make_length_spec",
    "make_pattern",
    "pattern_names",
]
