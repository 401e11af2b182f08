"""Unit tests for the extraction configuration."""

import pytest

from repro.core.config import TABLE3_PARAMETERS, ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.errors import ConfigError


class TestExtractionConfig:
    def test_defaults_match_paper(self):
        config = ExtractionConfig()
        assert config.prefilter_mode == "union"
        assert config.maximal_only
        assert config.miner == "apriori"
        assert config.detector.clones == 3
        assert config.detector.bins == 1024
        assert config.detector.vote_threshold == 3
        assert len(config.features) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_support=0),
            dict(prefilter_mode="both"),
            dict(features=()),
            dict(miner="magic"),
            dict(incident_jaccard=0.0),
            dict(incident_jaccard=1.5),
            dict(incident_quiet_gap=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExtractionConfig(**kwargs)

    def test_incident_defaults(self):
        config = ExtractionConfig()
        assert config.store_path is None
        # None = defer to the knobs the store persists (else 0.5/2), so
        # a later write run doesn't clobber a tuned store's settings.
        assert config.incident_jaccard is None
        assert config.incident_quiet_gap is None

    def test_store_path_opens_store(self, tmp_path):
        from repro.core.pipeline import AnomalyExtractor

        path = str(tmp_path / "inc.db")
        with AnomalyExtractor(
            ExtractionConfig(store_path=path)
        ) as extractor:
            assert extractor.store is not None
            assert extractor.store.path == path
            assert len(extractor.store) == 0
        # close() released the store connection too
        from repro.errors import IncidentError

        with pytest.raises(IncidentError, match="closed"):
            len(extractor.store)

    @pytest.mark.parametrize(
        "knob", ["jobs", "backend", "partitions", "parallel"]
    )
    def test_removed_parallel_knobs_refused(self, knob):
        with pytest.raises(
            ConfigError, match=f"unknown config field '{knob}'"
        ):
            ExtractionConfig(**{knob: 4})
        assert not hasattr(ExtractionConfig(), knob)

    def test_son_miner_accepted(self):
        assert ExtractionConfig(miner="son").miner == "son"

    def test_custom_detector_config(self):
        config = ExtractionConfig(
            detector=DetectorConfig(clones=5, bins=512, vote_threshold=4)
        )
        assert config.detector.clones == 5


class TestTable3:
    def test_covers_all_paper_parameters(self):
        symbols = {row.symbol for row in TABLE3_PARAMETERS}
        assert {"n", "L", "k / m", "K (C)", "V", "s"} <= symbols

    def test_rows_have_descriptions_and_ranges(self):
        for row in TABLE3_PARAMETERS:
            assert row.description
            assert row.paper_range
            assert row.repro_default
