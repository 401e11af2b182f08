"""Unit tests for anomaly meta-data and flow matching."""

import numpy as np
import pytest

from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.errors import ExtractionError


@pytest.fixture()
def metadata():
    meta = Metadata()
    meta.add(Feature.DST_PORT, np.array([80], dtype=np.uint64))
    meta.add(Feature.SRC_IP, np.array([10, 13], dtype=np.uint64))
    return meta


class TestMetadata:
    def test_add_merges_values(self):
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([80]))
        meta.add(Feature.DST_PORT, np.array([25, 80]))
        assert meta.get(Feature.DST_PORT).tolist() == [25, 80]

    @pytest.mark.parametrize(
        "values, shown",
        [
            (np.array([-1, 80]), "-1"),  # wrapped to 2^64-1 before
            (np.array([80.7]), "80.7"),  # truncated to port 80 before
            ([-1], "-1"),  # a bare OverflowError before
            ([2**64], str(2**64)),
            ([float("nan")], "nan"),
        ],
    )
    def test_add_refuses_values_no_flow_holds(self, values, shown):
        meta = Metadata()
        with pytest.raises(ExtractionError, match=rf"dstPort.*got {shown}"):
            meta.add(Feature.DST_PORT, values)
        assert meta.is_empty()

    def test_add_keeps_integral_values(self):
        meta = Metadata()
        voted = np.array([2**64 - 1, 7], dtype=np.uint64)
        meta.add(Feature.DST_IP, voted)
        assert meta.get(Feature.DST_IP) is voted
        meta.add(Feature.DST_PORT, np.array([80.0, 25.0]))
        meta.add(Feature.SRC_PORT, [])
        assert meta.get(Feature.DST_PORT).tolist() == [80, 25]
        assert meta.get(Feature.DST_PORT).dtype == np.uint64
        assert meta.get(Feature.SRC_PORT).dtype == np.uint64

    def test_copy_is_equal_and_independent(self, metadata):
        copy = metadata.copy()
        assert copy == metadata
        metadata.add(Feature.SRC_IP, np.array([11], dtype=np.uint64))
        assert copy != metadata
        assert copy.get(Feature.SRC_IP).tolist() == [10, 13]

    def test_get_missing_feature_empty(self):
        assert Metadata().get(Feature.SRC_IP).tolist() == []

    def test_total_values(self, metadata):
        assert metadata.total_values() == 3
        assert not metadata.is_empty()

    def test_features_lists_only_nonempty(self, metadata):
        metadata.add(Feature.PACKETS, np.array([], dtype=np.uint64))
        assert set(metadata.features()) == {Feature.DST_PORT, Feature.SRC_IP}

    def test_match_union(self, metadata, tiny_flows):
        mask = metadata.match_union(tiny_flows)
        # dst_port == 80 matches rows 0,1,3,5; src_ip 10 matches 0,1,5;
        # src_ip 13 matches row 4 -> union is 0,1,3,4,5.
        assert mask.tolist() == [True, True, False, True, True, True]

    def test_match_intersection(self, metadata, tiny_flows):
        mask = metadata.match_intersection(tiny_flows)
        # Needs dst_port in {80} AND src_ip in {10, 13}: rows 0,1,5.
        assert mask.tolist() == [True, True, False, False, False, True]

    def test_union_superset_of_intersection(self, metadata, tiny_flows):
        union = metadata.match_union(tiny_flows)
        inter = metadata.match_intersection(tiny_flows)
        assert (union | inter).tolist() == union.tolist()

    def test_empty_metadata_matches_nothing(self, tiny_flows):
        meta = Metadata()
        assert not meta.match_union(tiny_flows).any()
        assert not meta.match_intersection(tiny_flows).any()

    def test_flow_disjoint_metadata_intersection_empty(self, tiny_flows):
        # Port 443 appears only on row 2, port 25 only on row 4: the
        # multi-stage situation - union catches both, intersection none.
        meta = Metadata()
        meta.add(Feature.DST_PORT, np.array([443]))
        meta.add(Feature.SRC_PORT, np.array([5000]))
        union = meta.match_union(tiny_flows)
        inter = meta.match_intersection(tiny_flows)
        assert union.sum() == 2
        assert inter.sum() == 0

    def test_union_combinator(self):
        a = Metadata()
        a.add(Feature.DST_PORT, np.array([80]))
        b = Metadata()
        b.add(Feature.DST_PORT, np.array([25]))
        b.add(Feature.SRC_IP, np.array([1]))
        merged = Metadata.union([a, b])
        assert merged.get(Feature.DST_PORT).tolist() == [25, 80]
        assert merged.get(Feature.SRC_IP).tolist() == [1]

    def test_repr_compact(self, metadata):
        assert "dstPort:1" in repr(metadata)
