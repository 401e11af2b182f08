"""Round-trip and rejection tests for the declarative config."""

import json

import pytest

from repro.core import (
    ExtractionConfig,
    IncidentSettings,
    MiningSettings,
    StreamingSettings,
)
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.errors import ConfigError


def canonical(config: ExtractionConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True)


class TestConstruction:
    def test_flat_and_nested_spellings_equivalent(self):
        flat = ExtractionConfig(
            min_support=500, miner="eclat", window_intervals=4
        )
        nested = ExtractionConfig(
            mining=MiningSettings(min_support=500, miner="eclat"),
            streaming=StreamingSettings(window_intervals=4),
        )
        assert flat == nested

    def test_dict_groups_accepted(self):
        config = ExtractionConfig(
            mining={"min_support": 500},
            streaming={"window_intervals": 3},
            detector={"bins": 64},
        )
        assert config.min_support == 500
        assert config.window_intervals == 3
        assert config.detector.bins == 64

    def test_flat_kwargs_override_given_group(self):
        config = ExtractionConfig(
            mining=MiningSettings(min_support=500, miner="eclat"),
            min_support=900,
        )
        assert config.min_support == 900
        assert config.miner == "eclat"

    def test_unknown_flat_kwarg_with_hint(self):
        with pytest.raises(ConfigError, match="did you mean 'min_support'"):
            ExtractionConfig(min_supportt=5)

    def test_unknown_group_key_with_hint(self):
        with pytest.raises(ConfigError, match="did you mean 'miner'"):
            ExtractionConfig(mining={"minerr": "apriori"})

    def test_legacy_incident_names_still_map(self):
        config = ExtractionConfig(
            store_path="x.db", incident_jaccard=0.7, incident_quiet_gap=3
        )
        assert config.incidents == IncidentSettings(
            store_path="x.db", jaccard=0.7, quiet_gap=3
        )
        # ...and read back through the legacy flat properties.
        assert config.incident_jaccard == 0.7
        assert config.incident_quiet_gap == 3

    def test_features_by_set_name(self):
        config = ExtractionConfig(features="endpoints")
        assert Feature.SRC_IP in config.features
        assert Feature.PACKETS not in config.features

    def test_features_by_names(self):
        config = ExtractionConfig(features=["srcIP", "dst_port"])
        assert config.features == (Feature.SRC_IP, Feature.DST_PORT)

    def test_replace_flat_nested_and_groups(self):
        base = ExtractionConfig(min_support=100)
        derived = base.replace(
            miner="eclat", streaming={"window_intervals": 4}
        )
        assert derived.min_support == 100
        assert derived.miner == "eclat"
        assert derived.window_intervals == 4
        # the original is untouched (frozen value semantics)
        assert base.miner == "apriori"

    def test_dataclasses_replace_still_works(self):
        import dataclasses

        base = ExtractionConfig(min_support=100)
        derived = dataclasses.replace(
            base, mining=MiningSettings(min_support=200)
        )
        assert derived.min_support == 200

    def test_keep_extractions_default_and_flat_access(self):
        assert ExtractionConfig().keep_extractions is True
        assert ExtractionConfig(
            keep_extractions=False
        ).streaming.keep_extractions is False

    def test_streaming_validation(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(streaming=StreamingSettings(window_intervals=0))
        with pytest.raises(ConfigError):
            ExtractionConfig(max_delay_seconds=-1.0)


class TestDictRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            ExtractionConfig(),
            ExtractionConfig(
                detector=DetectorConfig(bins=64, training_intervals=4),
                features="endpoints",
                min_support=123,
                miner="fpgrowth",
                prefilter_mode="intersection",
                maximal_only=False,
                window_intervals=3,
                max_delay_seconds=5.0,
                max_pending_intervals=10,
                keep_extractions=False,
                store_path="/tmp/x.db",
                incident_jaccard=0.75,
                incident_quiet_gap=4,
            ),
        ],
    )
    def test_to_dict_from_dict_byte_stable(self, config):
        once = config.to_dict()
        rebuilt = ExtractionConfig.from_dict(once)
        assert rebuilt == config
        twice = rebuilt.to_dict()
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )

    def test_custom_features_refused_not_silently_mangled(self):
        from repro.detection.features import CustomFeature

        config = ExtractionConfig(
            features=[Feature.SRC_IP, CustomFeature("sub24", "dst_ip")]
        )
        with pytest.raises(ConfigError, match="cannot serialize"):
            config.to_dict()

    def test_none_knobs_omitted_for_toml_compat(self):
        data = ExtractionConfig().to_dict()
        for section in data.values():
            assert None not in section.values()

    def test_missing_sections_default(self):
        config = ExtractionConfig.from_dict({"mining": {"min_support": 9}})
        assert config.min_support == 9
        assert config == ExtractionConfig(min_support=9)

    def test_unknown_section_with_hint(self):
        with pytest.raises(ConfigError, match="did you mean 'mining'"):
            ExtractionConfig.from_dict({"minning": {}})

    def test_flat_key_at_top_level_redirects(self):
        with pytest.raises(
            ConfigError, match=r"did you mean \[incidents\] jaccard"
        ):
            ExtractionConfig.from_dict({"incident_jaccard": 0.5})

    def test_unknown_key_in_section_with_hint(self):
        with pytest.raises(ConfigError, match="did you mean 'min_support'"):
            ExtractionConfig.from_dict({"mining": {"min_suport": 10}})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"mining": {"min_support": "lots"}}, "must be int"),
            ({"mining": {"min_support": True}}, "must be int"),
            ({"streaming": {"keep_extractions": 1}}, "must be bool"),
            ({"mining": {"miner": 7}}, "must be str"),
            ({"detector": {"multiplier": "big"}}, "must be float"),
            ({"mining": "nope"}, "table of keys"),
            ("nope", "mapping of sections"),
        ],
    )
    def test_bad_types_rejected(self, data, match):
        with pytest.raises(ConfigError, match=match):
            ExtractionConfig.from_dict(data)

    def test_int_accepted_for_float_fields(self):
        config = ExtractionConfig.from_dict(
            {"streaming": {"max_delay_seconds": 5}}
        )
        assert config.max_delay_seconds == 5.0
        assert isinstance(config.max_delay_seconds, float)

    def test_range_validation_still_applies(self):
        with pytest.raises(ConfigError, match="min_support"):
            ExtractionConfig.from_dict({"mining": {"min_support": 0}})


class TestTomlRoundTrip:
    def test_from_toml_equivalent_to_flag_built_config(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(
            """
            [detector]
            bins = 64
            training_intervals = 4
            features = ["srcIP", "dstIP", "dstPort"]

            [mining]
            min_support = 123
            miner = "fpgrowth"
            maximal_only = false

            [streaming]
            window_intervals = 3
            max_delay_seconds = 5.0
            keep_extractions = false

            [incidents]
            jaccard = 0.75
            quiet_gap = 4
            """
        )
        from_file = ExtractionConfig.from_toml(str(path))
        from_flags = ExtractionConfig(
            detector=DetectorConfig(bins=64, training_intervals=4),
            features=("srcIP", "dstIP", "dstPort"),
            min_support=123,
            miner="fpgrowth",
            maximal_only=False,
            window_intervals=3,
            max_delay_seconds=5.0,
            keep_extractions=False,
            incident_jaccard=0.75,
            incident_quiet_gap=4,
        )
        assert from_file == from_flags
        assert canonical(from_file) == canonical(from_flags)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExtractionConfig.from_toml(str(tmp_path / "nope.toml"))

    def test_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[mining\nmin_support = 5")
        with pytest.raises(ConfigError, match="invalid TOML"):
            ExtractionConfig.from_toml(str(path))

    def test_error_carries_path_context(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[mining]\nmin_suport = 5\n")
        with pytest.raises(ConfigError, match="bad.toml"):
            ExtractionConfig.from_toml(str(path))
