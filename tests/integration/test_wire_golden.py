"""Golden bytes of the digest and checkpoint wire formats.

The hashes below were recorded under ``DIGEST_VERSION`` 2 and
``CHECKPOINT_VERSION`` 3: a digest states each feature's observed set
once, and a detector checkpoints only its previous counts, previous
KL, training diffs and calibration.  The decoded content - clone
counts, observed sets, count-min cells, reference counts - is the
same as under the versions before.  The hashes pin both formats: a
change that moves any of them must bump the matching version and
re-record.

Every hashed byte is integer-derived (bin counts, observed values,
count-min cells, pending rows).  The checkpoint is taken after the
first closed interval on purpose: the detectors already hold their
reference snapshots, but no KL distance has been computed yet, so the
file carries no ``log2`` result whose last bit depends on the host's
SIMD math library.
"""

from __future__ import annotations

import hashlib
from functools import reduce

import pytest

from repro.api import resolve_config
from repro.detection.detector import DetectorConfig
from repro.federation import Collector, split_trace
from repro.federation.digest import IntervalDigest
from repro.fleet.manager import FleetManager
from repro.flows.stream import iter_intervals
from repro.service.checkpoint import fleet_checkpoint, write_checkpoint
from repro.traffic.scenarios import worm_outbreak_trace

INTERVAL_SECONDS = 900.0
OUTBREAK_INTERVAL = 8
SITES = ("north", "east", "south", "west")
DETECTOR = DetectorConfig(training_intervals=6, bins=256)

GOLDEN_COLLECTOR_DIGEST = (
    "ef36438d2983533be7107e1c993880a9c0854967451b546cb04a5fe3baabb42a"
)
GOLDEN_MERGED_DIGEST = (
    "678de83470fe05fd6c978842ed6ad4fd93ab504983c6d2a772272bc7a7a1134a"
)
GOLDEN_FLEET_CHECKPOINT = (
    "aae1afcee940f5c6c031b88025dc19ac839c4cd1f17dbae9e3292642531fbdc6"
)


@pytest.fixture(scope="module")
def worm_flows():
    return worm_outbreak_trace(flows_per_interval=600, seed=23).flows


def _outbreak_digest(site: str, flows) -> IntervalDigest:
    collector = Collector(
        site, config=DETECTOR, seed=0, cm_width=512, cm_depth=4
    )
    digests = collector.run(flows, INTERVAL_SECONDS, origin=0.0)
    return digests[OUTBREAK_INTERVAL]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_collector_digest_bytes(worm_flows):
    digest = _outbreak_digest("solo", worm_flows)
    assert digest.flow_count > 5_000  # the outbreak is in there
    assert _sha256(digest.to_json().encode()) == GOLDEN_COLLECTOR_DIGEST


def test_four_site_merged_digest_bytes(worm_flows):
    parts = split_trace(worm_flows, SITES, "dst_ip%4")
    merged = reduce(
        IntervalDigest.merge,
        (_outbreak_digest(site, parts[site]) for site in SITES),
    )
    assert merged.sites == tuple(sorted(SITES))
    assert _sha256(merged.to_json().encode()) == GOLDEN_MERGED_DIGEST


def test_fleet_checkpoint_file_bytes(worm_flows, tmp_path):
    config = resolve_config(None, min_support=300, detector=DETECTOR)
    fleet = FleetManager(
        {"linkA": config, "linkB": config},
        route="dst_ip%2",
        interval_seconds=INTERVAL_SECONDS,
    )
    try:
        # Intervals 0 and 1: the first closes (reference snapshots
        # taken), the second is still pending in the assemblers.
        for view in iter_intervals(worm_flows, INTERVAL_SECONDS, origin=0.0):
            if view.index > 1:
                break
            fleet.feed(view.flows)
        doc = fleet_checkpoint(fleet, sequence=2)
    finally:
        fleet.close()
    for pipeline in doc["fleet"]["pipelines"].values():
        detectors = pipeline["session"]["detectors"]["detectors"]
        assert detectors, "checkpoint lost its detector state"
        for state in detectors.values():
            assert state["interval"] == 0
            assert all(snap is not None for snap in state["prev"])
    path = tmp_path / "fleet.ckpt"
    write_checkpoint(path, doc)
    assert _sha256(path.read_bytes()) == GOLDEN_FLEET_CHECKPOINT
