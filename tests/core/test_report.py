"""Unit tests for report rendering, admin triage, and serialization."""

import json

import pytest

import repro.api as api
from repro.core.report import (
    COMMON_SERVICE_PORTS,
    ExtractionReport,
    TriagedItemset,
    render_itemset_table,
    triage,
    triage_all,
)
from repro.detection.features import Feature
from repro.errors import ConfigError
from repro.mining.items import FrequentItemset, encode_item


def _itemset(pairs, support=100):
    items = tuple(sorted(encode_item(f, v) for f, v in pairs))
    return FrequentItemset(items=items, support=support)


class TestTriage:
    def test_uncommon_port_suspicious(self):
        entry = triage(_itemset([(Feature.DST_PORT, 7000)]))
        assert entry.hint == "suspicious"
        assert not entry.looks_benign

    def test_common_port_flagged_as_service(self):
        entry = triage(_itemset([(Feature.DST_PORT, 80), (Feature.PROTOCOL, 6)]))
        assert entry.hint == "common-service"
        assert entry.looks_benign

    def test_backscatter_signature_stays_suspicious(self):
        entry = triage(
            _itemset(
                [
                    (Feature.DST_PORT, 9022),
                    (Feature.PACKETS, 1),
                    (Feature.BYTES, 40),
                ]
            )
        )
        assert entry.hint == "suspicious"

    def test_size_only_itemset_common(self):
        entry = triage(_itemset([(Feature.PROTOCOL, 6), (Feature.PACKETS, 1)]))
        assert entry.hint == "common-size"

    def test_size_only_with_unusual_packets_suspicious(self):
        entry = triage(_itemset([(Feature.PROTOCOL, 6), (Feature.PACKETS, 12)]))
        assert entry.hint == "suspicious"

    def test_endpoint_without_port_suspicious(self):
        entry = triage(_itemset([(Feature.DST_IP, 42)]))
        assert entry.hint == "suspicious"

    def test_endpoint_with_common_port_stays_suspicious(self):
        """A specific endpoint trumps well-known ports: a DDoS on
        {dstIP x, dstPort 80} must not be waved through as a busy web
        server."""
        entry = triage(
            _itemset([(Feature.DST_IP, 42), (Feature.DST_PORT, 80)])
        )
        assert entry.hint == "suspicious"
        assert not entry.looks_benign

    def test_source_endpoint_with_common_port_suspicious(self):
        entry = triage(
            _itemset([(Feature.SRC_IP, 7), (Feature.DST_PORT, 80)])
        )
        assert entry.hint == "suspicious"

    def test_common_ports_without_endpoint_still_service(self):
        entry = triage(
            _itemset([(Feature.SRC_PORT, 443), (Feature.DST_PORT, 80)])
        )
        assert entry.hint == "common-service"

    def test_mixed_ports_suspicious_if_any_uncommon(self):
        entry = triage(
            _itemset([(Feature.SRC_PORT, 80), (Feature.DST_PORT, 31337)])
        )
        assert entry.hint == "suspicious"

    def test_triage_all_preserves_order(self):
        itemsets = [
            _itemset([(Feature.DST_PORT, 7000)]),
            _itemset([(Feature.DST_PORT, 80)]),
        ]
        hints = [t.hint for t in triage_all(itemsets)]
        assert hints == ["suspicious", "common-service"]

    def test_common_ports_include_paper_examples(self):
        assert 80 in COMMON_SERVICE_PORTS
        assert 25 in COMMON_SERVICE_PORTS


class TestTriagedItemsetSerialization:
    def test_to_dict_round_trip(self):
        entry = triage(_itemset([(Feature.DST_PORT, 7000)], support=88))
        data = entry.to_dict()
        assert data["support"] == 88
        assert data["hint"] == "suspicious"
        assert data["rendered"] == ["dstPort=7000"]
        assert TriagedItemset.from_dict(data) == entry

    def test_dict_is_json_safe(self):
        entry = triage(
            _itemset([(Feature.DST_IP, 42), (Feature.DST_PORT, 80)])
        )
        text = json.dumps(entry.to_dict())
        assert TriagedItemset.from_dict(json.loads(text)) == entry


class TestExtractionReport:
    def _report(self):
        return ExtractionReport(
            interval=24,
            start=21600.0,
            end=22500.0,
            input_flows=1500,
            selected_flows=420,
            prefilter_mode="union",
            algorithm="apriori",
            min_support=300,
            alarmed_features=("srcIP", "dstIP"),
            itemsets=tuple(triage_all([
                _itemset([(Feature.DST_IP, 42), (Feature.DST_PORT, 80)],
                         support=400),
                _itemset([(Feature.PROTOCOL, 6)], support=350),
            ])),
        )

    def test_json_round_trip_is_byte_stable(self):
        report = self._report()
        text = report.to_json()
        again = ExtractionReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_detector_votes(self):
        assert self._report().detector_votes == 2

    def test_suspicious_itemsets_filter(self):
        report = self._report()
        assert len(report.suspicious_itemsets) == 1
        assert report.suspicious_itemsets[0].hint == "suspicious"

    def test_from_result_interval_bounds(self, ddos_trace):
        from repro.core.config import ExtractionConfig
        from repro.detection.detector import DetectorConfig

        config = ExtractionConfig(
            detector=DetectorConfig(
                clones=3, bins=256, vote_threshold=3,
                training_intervals=16,
            ),
            min_support=300,
        )
        result = api.extract(
            ddos_trace.flows, config, interval_seconds=900.0, seed=1,
        )
        assert result.extractions
        extraction = result.extractions[0]
        report = ExtractionReport.from_result(extraction, 900.0)
        assert report.interval == extraction.interval
        assert report.start == extraction.interval * 900.0
        assert report.end == report.start + 900.0
        assert report.min_support == extraction.mining.min_support
        assert len(report.itemsets) == len(extraction.mining.itemsets)

    def test_from_result_rejects_bad_interval_length(self):
        with pytest.raises(ConfigError, match="positive"):
            ExtractionReport.from_result(_FakeResult(), 0.0)


class _FakeResult:
    interval = 0


class TestRenderTable:
    def test_empty(self):
        assert "no frequent item-sets" in render_itemset_table([])

    def test_contains_items_and_support(self):
        table = render_itemset_table(
            [_itemset([(Feature.DST_PORT, 7000)], support=1234)]
        )
        assert "dstPort=7000" in table
        assert "1234" in table
        assert "suspicious" in table

    def test_header_row(self):
        table = render_itemset_table([_itemset([(Feature.DST_PORT, 80)])])
        assert table.splitlines()[0].startswith("item-set")
