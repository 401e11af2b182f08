"""Unit tests for the feature enum."""

import numpy as np
import pytest

from repro.detection.features import (
    DETECTOR_FEATURES,
    MINING_FEATURES,
    Feature,
    parse_feature,
)
from repro.errors import ConfigError


class TestFeature:
    def test_seven_mining_features(self):
        assert len(MINING_FEATURES) == 7

    def test_five_detector_features(self):
        # Section II-E: srcIP, dstIP, srcPort, dstPort, #packets.
        assert len(DETECTOR_FEATURES) == 5
        assert Feature.PROTOCOL not in DETECTOR_FEATURES
        assert Feature.BYTES not in DETECTOR_FEATURES

    def test_extract_reads_matching_column(self, tiny_flows):
        assert np.array_equal(
            Feature.DST_PORT.extract(tiny_flows), tiny_flows.dst_port
        )
        assert np.array_equal(
            Feature.BYTES.extract(tiny_flows), tiny_flows.bytes
        )

    def test_format_ip_value(self):
        assert Feature.SRC_IP.format_value(167772161) == "10.0.0.1"

    def test_format_protocol_value(self):
        assert Feature.PROTOCOL.format_value(6) == "tcp"
        assert Feature.PROTOCOL.format_value(99) == "99"

    def test_format_plain_value(self):
        assert Feature.DST_PORT.format_value(80) == "80"

    def test_short_names(self):
        assert Feature.DST_PORT.short_name == "dstPort"
        assert Feature.PACKETS.short_name == "#packets"


class TestParseFeature:
    @pytest.mark.parametrize("name", ["dst_port", "dstPort"])
    def test_accepts_column_and_short_names(self, name):
        assert parse_feature(name) is Feature.DST_PORT

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_feature("port")

    def test_round_trip_all(self):
        for feature in Feature:
            assert parse_feature(feature.value) is feature
            assert parse_feature(feature.short_name) is feature


class TestRepeatedFeatures:
    """One detector per short name: the bank and its checkpoint key on
    it, so a repeat would silently collapse or lose a detector."""

    def test_repeated_name_refused(self):
        from repro.core import ExtractionConfig

        with pytest.raises(ConfigError, match="'srcIP'"):
            ExtractionConfig(features=["srcIP", "srcIP", "dstPort"])

    def test_custom_feature_shadowing_a_builtin_refused(self):
        from repro.detection.features import CustomFeature
        from repro.detection.manager import DetectorBank

        with pytest.raises(ConfigError, match="'srcIP'"):
            DetectorBank(
                features=[CustomFeature("srcIP", "dst_ip"), Feature.SRC_IP]
            )

    def test_toml_list_with_a_repeat_refused(self, tmp_path):
        from repro.core import ExtractionConfig

        path = tmp_path / "run.toml"
        path.write_text('[detector]\nfeatures = ["dstIP", "dst_ip"]\n')
        with pytest.raises(ConfigError, match="'dstIP'"):
            ExtractionConfig.from_toml(path)
