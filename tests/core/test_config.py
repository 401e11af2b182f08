"""Unit tests for the extraction configuration."""

import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
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


#: Python spellings of a wrong-type value -> the ``(section, key, value)``
#: TOML would spell it as.
PYTHON_SPELLINGS = [
    (
        lambda: ExtractionConfig(mining={"maximal_only": "no"}),
        ("mining", "maximal_only", "no"),
    ),
    (
        lambda: ExtractionConfig(mining={"min_support": "500"}),
        ("mining", "min_support", "500"),
    ),
    (
        lambda: ExtractionConfig(min_support="500"),
        ("mining", "min_support", "500"),
    ),
    (
        lambda: ExtractionConfig(detector={"bins": "64"}),
        ("detector", "bins", "64"),
    ),
    (
        lambda: ExtractionConfig(incidents={"jaccard": "0.5"}),
        ("incidents", "jaccard", "0.5"),
    ),
    (
        lambda: api.session(mining={"min_support": "500"}),
        ("mining", "min_support", "500"),
    ),
]


class TestPythonSpellingsAreTypeChecked:
    """Mapping groups, a mapping ``detector`` and flat kwargs go through
    the checker TOML values do, and are refused in the same words."""

    @pytest.mark.parametrize(
        "build, toml",
        PYTHON_SPELLINGS,
        ids=["maximal_only", "mining-group", "flat", "detector", "jaccard",
             "api-session"],
    )
    def test_refused_like_toml(self, build, toml):
        section, key, value = toml
        with pytest.raises(ConfigError) as from_toml:
            ExtractionConfig.from_dict({section: {key: value}})
        with pytest.raises(ConfigError) as from_python:
            build()
        assert str(from_python.value) == str(from_toml.value)
        assert str(from_python.value).startswith(f"[{section}] {key} must be")

    def test_none_unsets_an_optional_key(self):
        config = ExtractionConfig(store_path=None, max_pending_intervals=None)
        assert config.incidents.store_path is None
        assert config.streaming.max_pending_intervals is None
        grouped = ExtractionConfig(
            incidents={"store_path": None},
            streaming={"max_pending_intervals": None},
        )
        assert grouped == config

    def test_none_is_refused_where_the_key_is_not_optional(self):
        with pytest.raises(ConfigError, match=r"\[mining\] min_support must"):
            ExtractionConfig(min_support=None)
