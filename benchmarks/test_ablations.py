"""Benchmark: ablations over the design choices DESIGN.md calls out.

* simple vs. selective G/P promotion (the paper's open question);
* injection limitation on/off (paper Sec. 4.1 motivates it);
* number of virtual channels (routing freedom vs. deadlock frequency);
* recovery scheme (progressive vs. regressive).
"""

import sys

from repro.experiments.spec import base_config
from repro.network.simulator import Simulator


def saturated_config(seed=7):
    config = base_config()
    config.seed = seed
    config.traffic.pattern = "uniform"
    config.traffic.lengths = "sl"
    config.traffic.injection_rate = 0.74  # ~saturation of the 64-node torus
    config.detector.mechanism = "ndm"
    config.detector.threshold = 32
    return config


def run(config):
    return Simulator(config).run()


def test_promotion_variant_ablation(once):
    """Selective promotion only removes spurious G promotions: every
    message it marks the simple variant marks too, and no later.

    Compared without recovery, so both variants ride one trajectory;
    with recovery on each variant steers its own run and a single seed's
    detection percentages say nothing about the mechanism.
    """

    def ablate():
        out = {}
        for selective in (False, True):
            config = saturated_config()
            config.recovery = "none"
            config.detector.selective_promotion = selective
            key = "selective" if selective else "simple"
            out[key] = {
                e.message_id: e.cycle for e in run(config).detection_events
            }
        return out

    result = once(ablate)
    simple, selective = result["simple"], result["selective"]
    print(
        f"\npromotion ablation messages marked: simple {len(simple)}, "
        f"selective {len(selective)}",
        file=sys.stderr,
    )
    assert 0 < len(selective) < len(simple)
    assert set(selective) <= set(simple)
    assert all(selective[m] >= simple[m] for m in selective)


def test_injection_limitation_ablation(once):
    """Without the limitation, the oversaturated network degrades; with
    it, throughput holds near the saturation plateau (paper [11, 12])."""

    def ablate():
        out = {}
        for fraction in (0.65, None):
            config = saturated_config()
            config.traffic.injection_rate = 1.0  # beyond saturation
            config.traffic.lengths = "s"
            config.injection_limit_fraction = fraction
            # Pure network: with detection+recovery active the recovery
            # lane masks the degradation the limitation prevents.
            config.detector.mechanism = "none"
            config.recovery = "none"
            stats = run(config)
            out[str(fraction)] = stats.throughput()
        return out

    result = once(ablate)
    print(f"\ninjection limitation throughput: {result}", file=sys.stderr)
    assert result["0.65"] >= result["None"] - 0.05


def test_virtual_channel_ablation(once):
    """Fewer virtual channels -> less routing freedom -> more detections
    (and with 1 VC, often true deadlocks)."""

    def ablate():
        out = {}
        for vcs in (1, 2, 3):
            config = saturated_config()
            config.vcs_per_channel = vcs
            config.traffic.injection_rate = 0.55
            stats = run(config)
            out[vcs] = (
                stats.detection_percentage(),
                stats.had_true_deadlock(),
                stats.throughput(),
            )
        return out

    result = once(ablate)
    print(f"\nVC ablation (detected%, deadlock?, thr): {result}", file=sys.stderr)
    assert result[1][0] >= result[3][0]  # 1 VC detects at least as much


def test_recovery_scheme_ablation(once):
    """All schemes keep the saturated network delivering; regressive
    retries inflate the worst-case latency."""

    def ablate():
        out = {}
        for scheme in ("progressive", "progressive-reinject", "regressive"):
            config = saturated_config()
            config.detector.threshold = 16
            config.recovery = scheme
            stats = run(config)
            out[scheme] = (stats.throughput(), stats.max_latency)
        return out

    result = once(ablate)
    print(f"\nrecovery ablation (thr, max lat): {result}", file=sys.stderr)
    for throughput, _ in result.values():
        assert throughput > 0.4


def test_t1_sensitivity(once):
    """The paper sets t1 = 1 cycle; nearby values barely change the
    detection percentage (it is t2 that must be tuned)."""

    def ablate():
        out = {}
        for t1 in (1, 2, 4):
            config = saturated_config()
            config.detector.t1 = t1
            stats = run(config)
            out[t1] = stats.detection_percentage()
        return out

    result = once(ablate)
    print(f"\nt1 sensitivity detected%: {result}", file=sys.stderr)
    spread = max(result.values()) - min(result.values())
    assert spread <= max(2.0, max(result.values()))


def test_i_flag_approximation_ablation(once):
    """ndm (one-bit I-flag hardware) vs ndm-precise (exact per-message
    root-adjacency): quantifies what the paper's hardware approximation
    costs on this substrate."""

    def ablate():
        out = {}
        for mechanism in ("ndm", "ndm-precise", "pdm"):
            config = saturated_config()
            config.detector.mechanism = mechanism
            stats = run(config)
            out[mechanism] = stats.detection_percentage()
        return out

    result = once(ablate)
    print(f"\nI-flag approximation ablation detected%: {result}", file=sys.stderr)
    # The exact variant never detects tree-interior messages, so it cannot
    # exceed PDM by more than noise.
    assert result["ndm-precise"] <= result["pdm"] * 1.4 + 0.5
