"""Section II-A ablation: union vs intersection prefiltering.

Paper: meta-data of multi-stage anomalies (the Sasser worm: SYN scan on
445, backdoor on 9996, 16 kB payload download) is flow-disjoint, so the
intersection of flows matching all meta-data is empty and misses the
anomaly entirely, while the union retains every stage - the reason the
pipeline takes the union (see also [3, Section 3.4]).
"""

import numpy as np

from repro.anomalies.worm import (
    SASSER_BACKDOOR_PORT,
    SASSER_FTP_PORT,
    SASSER_PAYLOAD_BYTES,
    SASSER_SCAN_PORT,
)
from repro.core.prefilter import prefilter
from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.flows.stream import interval_of
from repro.mining.apriori import apriori
from repro.mining.transactions import TransactionSet
from repro.traffic.scenarios import worm_outbreak_trace


def _workload():
    trace = worm_outbreak_trace(flows_per_interval=2000, seed=23)
    interval = interval_of(trace.flows, 8, 900.0, origin=0.0)
    metadata = Metadata()
    metadata.add(
        Feature.DST_PORT,
        np.array(
            [SASSER_SCAN_PORT, SASSER_BACKDOOR_PORT, SASSER_FTP_PORT],
            dtype=np.uint64,
        ),
    )
    metadata.add(
        Feature.BYTES, np.array([SASSER_PAYLOAD_BYTES], dtype=np.uint64)
    )
    return interval.flows, metadata


def test_union_vs_intersection_prefilter():
    flows, metadata = _workload()

    union = prefilter(flows, metadata, "union")
    inter = prefilter(flows, metadata, "intersection")

    total_event = int(flows.anomalous_mask.sum())
    union_event = int(union.flows.anomalous_mask.sum())
    inter_event = int(inter.flows.anomalous_mask.sum())

    union_ports = set(np.unique(union.flows.dst_port).tolist())
    inter_ports = set(np.unique(inter.flows.dst_port).tolist())

    # The paper's claim: union retains all stages, intersection misses
    # the scan and backdoor stages entirely.
    assert {SASSER_SCAN_PORT, SASSER_BACKDOOR_PORT, SASSER_FTP_PORT} <= union_ports
    assert SASSER_SCAN_PORT not in inter_ports
    assert SASSER_BACKDOOR_PORT not in inter_ports
    assert union_event / total_event > 0.99, (
        f"union kept {union_event} of {total_event} event flows"
    )
    assert inter_event < 0.4 * total_event, (
        f"intersection kept {inter_event} of {total_event} event flows"
    )


def test_union_mining_summarizes_all_stages():
    """End-to-end: mining the union-prefiltered flows produces item-sets
    for every worm stage; the intersection variant cannot."""
    flows, metadata = _workload()
    union = prefilter(flows, metadata, "union")

    result = apriori(TransactionSet.from_flows(union.flows), 300)
    ports_in_report = {
        s.as_dict().get(Feature.DST_PORT) for s in result.itemsets
    }
    assert {SASSER_SCAN_PORT, SASSER_BACKDOOR_PORT, SASSER_FTP_PORT} <= ports_in_report
