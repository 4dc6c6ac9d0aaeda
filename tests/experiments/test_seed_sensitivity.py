"""Seed sensitivity: the reproduction's shapes must not be seed artifacts."""


from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator


def run_cell(seed: int, mechanism: str = "ndm", threshold: int = 8,
             rate: float = 0.5) -> float:
    config = SimulationConfig(
        radix=4, dimensions=2, warmup_cycles=200, measure_cycles=1200,
        seed=seed,
    )
    config.traffic.injection_rate = rate
    config.detector.mechanism = mechanism
    config.detector.threshold = threshold
    return Simulator(config).run().detection_percentage()


SEEDS = (3, 17, 91)


class TestSeedSensitivity:
    def test_throughput_stable_across_seeds(self):
        values = []
        for seed in SEEDS:
            config = SimulationConfig(
                radix=4, dimensions=2, warmup_cycles=200,
                measure_cycles=1200, seed=seed,
            )
            config.traffic.injection_rate = 0.4
            values.append(Simulator(config).run().throughput())
        mean = sum(values) / len(values)
        assert all(abs(v - mean) < 0.1 * mean + 0.02 for v in values)

    def test_threshold_decay_holds_for_every_seed(self):
        """The core table shape (decay with threshold) is seed-robust."""
        for seed in SEEDS:
            low = run_cell(seed, threshold=4, rate=0.8)
            high = run_cell(seed, threshold=64, rate=0.8)
            assert high <= low + 0.5, (seed, low, high)

    def test_load_growth_holds_for_every_seed(self):
        for seed in SEEDS:
            below = run_cell(seed, threshold=4, rate=0.4)
            saturated = run_cell(seed, threshold=4, rate=1.0)
            assert saturated >= below - 0.3, (seed, below, saturated)

    def test_crude_timeout_dominates_for_every_seed(self):
        for seed in SEEDS:
            ndm = run_cell(seed, "ndm", threshold=16, rate=1.0)
            pdm = run_cell(seed, "pdm", threshold=16, rate=1.0)
            crude = run_cell(seed, "timeout", threshold=16, rate=1.0)
            assert crude >= max(ndm, pdm) * 0.8, (seed, ndm, pdm, crude)
            assert crude > 1.0, (seed, crude)  # crude timeouts mark heavily
