"""Golden bytes of the digest and checkpoint wire formats.

The digest hashes below were recorded under ``DIGEST_VERSION`` 3, the
checkpoint hash under ``CHECKPOINT_VERSION`` 5.  A digest states each
feature's observed values and their exact flow counts, and a detector
checkpoints only its previous counts, previous KL, training diffs and
calibration.  The decoded content - the clone counts derived from the
value counts, observed sets, reference counts - is the same as under
the versions before; only the count-min cells of version 2 became
exact counts.  The checkpoint file differs from its version-3 and
version-4 bytes in its version number alone: version 5 dropped the
federation block's reports, which a fleet-only checkpoint never
carried.  The hashes pin both formats: a change that moves any of them
must bump the matching version and re-record.

Every hashed byte is integer-derived (value counts, observed values,
pending rows).  The checkpoint is taken after the
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
    "2e14928ca9678adf14e75d42fed01add1942191b7c185d4d8ad5c9221425ff28"
)
GOLDEN_MERGED_DIGEST = (
    "8f5e0fde5959692cefb9ad3473f4a732e2cc9e12c75f565ce9694cfa65a8e79e"
)
GOLDEN_FLEET_CHECKPOINT = (
    "7e61d006adca4efae5f2011f77d5ae75d9e8acd551ec419e6dc9af631a4ba4c6"
)


@pytest.fixture(scope="module")
def worm_flows():
    return worm_outbreak_trace(flows_per_interval=600, seed=23).flows


def _outbreak_digest(site: str, flows) -> IntervalDigest:
    collector = Collector(site, config=DETECTOR, seed=0)
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
