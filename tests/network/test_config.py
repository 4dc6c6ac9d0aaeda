"""Tests for simulation configuration and validation."""

import dataclasses

import pytest

from repro.campaign.jobs import config_hash, enumerate_table_jobs
from repro.experiments.spec import TABLE_SPECS, base_config, quick_spec
from repro.network.config import (
    DetectorConfig,
    SimulationConfig,
    TrafficConfig,
    paper_config,
    quick_config,
)
from repro.network.simulator import Simulator
from repro.network.topology import KAryNCube, Mesh


class TestDefaults:
    def test_defaults_match_paper_model(self):
        config = SimulationConfig()
        assert config.vcs_per_channel == 3
        assert config.buffer_depth == 4
        assert config.routing == "fully-adaptive"
        assert config.detector.t1 == 1

    def test_paper_config_is_512_nodes(self):
        assert paper_config().build_topology().num_nodes == 512

    def test_quick_config_is_64_nodes(self):
        assert quick_config().build_topology().num_nodes == 64

    def test_default_validates(self):
        SimulationConfig().validate()


class TestTopologyBuilding:
    def test_builds_torus(self):
        assert isinstance(SimulationConfig(topology="torus").build_topology(), KAryNCube)

    def test_builds_mesh(self):
        assert isinstance(SimulationConfig(topology="mesh").build_topology(), Mesh)

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SimulationConfig(topology="hypercube").build_topology()

    def test_one_shared_instance_per_shape(self):
        a = SimulationConfig(radix=4, dimensions=2)
        assert a.build_topology() is a.replace(seed=9).build_topology()
        assert a.build_topology() is not a.replace(radix=5).build_topology()
        assert a.build_topology() is not a.replace(topology="mesh").build_topology()

    def test_bad_shape_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="radix"):
                SimulationConfig(radix=1).validate()


class TestInjectionLimit:
    def test_fraction_computes_floor(self):
        config = SimulationConfig(injection_limit_fraction=0.5)
        assert config.injection_limit(18) == 9

    def test_none_disables(self):
        config = SimulationConfig(injection_limit_fraction=None)
        assert config.injection_limit(18) is None

    def test_invalid_fraction_raises(self):
        config = SimulationConfig(injection_limit_fraction=1.5)
        with pytest.raises(ValueError):
            config.injection_limit(18)

    def test_zero_fraction_raises(self):
        config = SimulationConfig(injection_limit_fraction=0.0)
        with pytest.raises(ValueError):
            config.injection_limit(18)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("vcs_per_channel", 0),
            ("buffer_depth", 0),
            ("injection_ports", 0),
            ("ejection_ports", 0),
            ("warmup_cycles", -1),
            ("measure_cycles", 0),
            ("recovery", "teleport"),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        config = SimulationConfig()
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_negative_rate_rejected(self):
        config = SimulationConfig()
        config.traffic.injection_rate = -0.1
        with pytest.raises(ValueError):
            config.validate()

    def test_zero_threshold_rejected(self):
        config = SimulationConfig()
        config.detector.threshold = 0
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "changes,message",
        [
            # The detector cases keep the ids they had as the only cases.
            pytest.param(
                {"detector": DetectorConfig(mechanism="nope")},
                "unknown detection mechanism 'nope'",
                id="detector0-unknown detection mechanism 'nope'",
            ),
            pytest.param(
                {"detector": DetectorConfig(mechanism="ndm", threshold=1)},
                "must be well below t2",
                id="detector1-must be well below t2",
            ),
            pytest.param(
                {"detector": DetectorConfig(mechanism="hybrid", threshold=1)},
                "must be well below t2",
                id="detector2-must be well below t2",
            ),
            pytest.param(
                {"routing": "west-first"},
                "unknown routing function 'west-first'",
                id="routing",
            ),
            pytest.param(
                {"traffic": TrafficConfig(pattern="tornado")},
                "unknown traffic pattern 'tornado'",
                id="pattern",
            ),
            pytest.param(
                {"traffic": TrafficConfig(lengths="xl")},
                "unknown length spec 'xl'",
                id="lengths",
            ),
            pytest.param(
                {"injection_limit_fraction": 1.5},
                r"injection_limit_fraction must be in \(0, 1\], got 1.5",
                id="injection-limit-fraction",
            ),
        ],
    )
    def test_validate_rejects_what_the_simulator_would(self, changes, message):
        """``validate()`` / ``from_dict()`` raise the constructor's own
        error, so a bad campaign cell dies before any cell runs."""
        config = SimulationConfig(**changes)
        with pytest.raises(ValueError, match=message) as at_build:
            Simulator(config)
        with pytest.raises(ValueError, match=message) as at_validate:
            config.validate()
        assert str(at_validate.value) == str(at_build.value)
        with pytest.raises(ValueError, match=message):
            SimulationConfig.from_dict(config.to_dict())

    @pytest.mark.parametrize(
        "recovery", ["progressive", "progressive-reinject", "regressive", "none"]
    )
    def test_all_recovery_schemes_accepted(self, recovery):
        SimulationConfig(recovery=recovery).validate()


class TestReplace:
    def test_replace_changes_field(self):
        clone = SimulationConfig().replace(radix=4)
        assert clone.radix == 4

    def test_replace_deep_copies_traffic(self):
        config = SimulationConfig()
        clone = config.replace()
        clone.traffic.injection_rate = 0.9
        clone.traffic.pattern_params["radius"] = 2
        assert config.traffic.injection_rate != 0.9
        assert "radius" not in config.traffic.pattern_params

    def test_replace_deep_copies_detector(self):
        config = SimulationConfig()
        clone = config.replace()
        clone.detector.threshold = 999
        assert config.detector.threshold != 999

    def test_replace_shares_no_mutable_object(self):
        config = faulted_config()
        clone = config.replace()
        assert clone == config
        for part in (
            lambda c: c.traffic,
            lambda c: c.detector,
            lambda c: c.traffic.pattern_params,
            lambda c: c.traffic.length_params,
            lambda c: c.faults,
        ):
            assert part(clone) is not part(config)
        for copied, original in zip(clone.faults, config.faults):
            assert copied is not original
        assert SimulationConfig().replace().faults is None

    def test_replace_applies_changes_and_rejects_unknown_fields(self):
        config = SimulationConfig()
        traffic = TrafficConfig(injection_rate=0.5)
        clone = config.replace(seed=99, traffic=traffic)
        assert (clone.seed, config.seed) == (99, 1)
        assert clone.traffic is traffic  # a passed value is taken as is
        with pytest.raises(TypeError):
            config.replace(no_such_field=1)

    def test_replace_serializes_like_the_constructor_copy(self, monkeypatch):
        """Every quick-table cell and a faulted config: the attribute copy
        gives the ``to_dict()`` and ``config_hash`` that rebuilding
        through ``dataclasses.replace`` gives (the cache keys)."""
        def planned():
            configs = [faulted_config()]
            base = base_config(full=False)
            for table_id in sorted(TABLE_SPECS):
                spec = quick_spec(TABLE_SPECS[table_id])
                _, jobs = enumerate_table_jobs(spec, base, saturation=0.5)
                configs += [job.config for job in jobs]
            return configs

        copied = planned()
        for config in copied:
            for changes in ({}, {"seed": 11}):
                clone = config.replace(**changes)
                rebuilt = constructor_replace(config, **changes)
                assert clone.to_dict() == rebuilt.to_dict()
                assert config_hash(clone) == config_hash(rebuilt)
        monkeypatch.setattr(SimulationConfig, "replace", constructor_replace)
        rebuilt = planned()
        assert len(copied) == 1 + 8 * 24
        assert [c.to_dict() for c in copied] == [c.to_dict() for c in rebuilt]
        assert list(map(config_hash, copied)) == list(map(config_hash, rebuilt))


def faulted_config():
    config = SimulationConfig(seed=5)
    config.traffic.pattern_params = {"fraction": 0.05, "nodes": [1, 2]}
    config.traffic.length_params = {"flits": 8}
    config.faults = [
        {"kind": "link-down", "start": 2, "end": 10, "channel": 3},
        {"kind": "link-down", "start": 5, "end": 7, "channel": 3},
    ]
    return config


def constructor_replace(config, **changes):
    """``SimulationConfig.replace`` as three ``dataclasses.replace``
    constructions plus a fourth for ``changes``."""
    clone = dataclasses.replace(
        config,
        traffic=dataclasses.replace(
            config.traffic,
            pattern_params=dict(config.traffic.pattern_params),
            length_params=dict(config.traffic.length_params),
        ),
        detector=dataclasses.replace(config.detector),
        faults=(
            [dict(f) for f in config.faults]
            if config.faults is not None
            else None
        ),
    )
    return dataclasses.replace(clone, **changes)


class TestSubConfigs:
    def test_traffic_defaults(self):
        traffic = TrafficConfig()
        assert traffic.pattern == "uniform"
        assert traffic.lengths == "s"

    def test_detector_defaults(self):
        detector = DetectorConfig()
        assert detector.mechanism == "ndm"
        assert detector.threshold == 32
        assert not detector.selective_promotion


class TestSerialization:
    def test_round_trip(self):
        config = SimulationConfig(radix=8, dimensions=3, seed=42)
        config.traffic.pattern = "hot-spot"
        config.traffic.pattern_params = {"fraction": 0.05}
        config.detector.mechanism = "pdm"
        config.detector.threshold = 128
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_serializable(self):
        import json

        payload = json.dumps(SimulationConfig().to_dict())
        rebuilt = SimulationConfig.from_dict(json.loads(payload))
        assert rebuilt.radix == SimulationConfig().radix

    def test_to_dict_shares_no_container_with_the_config(self):
        config = SimulationConfig()
        config.traffic.pattern_params = {"fraction": 0.05, "nodes": [1, 2]}
        config.faults = [{"kind": "link-down", "start": 1, "end": 5, "channel": 0}]
        before = dataclasses.asdict(config)
        payload = config.to_dict()
        assert payload == before
        payload["faults"][0]["channel"] = 9
        payload["faults"].append({})
        payload["traffic"]["pattern_params"]["nodes"].append(3)
        payload["traffic"]["pattern_params"]["fraction"] = 1.0
        payload["detector"]["threshold"] = 1
        assert dataclasses.asdict(config) == before

    def test_from_dict_validates(self):
        payload = SimulationConfig().to_dict()
        payload["vcs_per_channel"] = 0
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(payload)
