"""Cross-path differential: the digest path against the rows.

Two independent computations of the same facts, checked against each
other rather than each against its own fixtures.  A worm-outbreak
trace is split over 1, 2 and 4 sites and federated; the same trace is
also read row by row.  For every split:

* the federated alarm intervals are those of one
  :class:`~repro.detection.manager.DetectorBank` run over the whole
  trace;
* every single-item support a federated report carries is the exact
  number of the alarmed interval's flows holding that value (the
  version-2 count-min read e.g. 868 for a destination the rows count
  866 times).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.detection.detector import DetectorConfig
from repro.detection.manager import DetectorBank
from repro.flows.stream import iter_intervals
from repro.mining.items import decode_item
from repro.traffic.scenarios import worm_outbreak_trace

INTERVAL_SECONDS = 900.0
#: The perf ledger's ``federation_4site`` shape: 24 intervals of 20k
#: flows, the outbreak at interval 20, past a 16-interval training.
DETECTOR = DetectorConfig(bins=256, training_intervals=16)
SEED = 1
MIN_SUPPORT = 500


@pytest.fixture(scope="module")
def worm():
    return worm_outbreak_trace(
        flows_per_interval=20_000, seed=7, n_intervals=24,
        outbreak_interval=20,
    ).flows


@pytest.fixture(scope="module")
def row_alarms(worm):
    run = DetectorBank(DETECTOR, seed=SEED).run(
        worm, INTERVAL_SECONDS, origin=0.0
    )
    return run.alarm_intervals()


@pytest.fixture(scope="module")
def interval_rows(worm):
    return {
        view.index: view.flows
        for view in iter_intervals(worm, INTERVAL_SECONDS, origin=0.0)
    }


@pytest.mark.parametrize("n_sites", [1, 2, 4])
def test_digest_path_equals_row_path(
    n_sites, worm, row_alarms, interval_rows
):
    result = api.federate(
        worm,
        sites=[f"pop{k}" for k in range(n_sites)],
        route=f"src_ip%{n_sites}",
        detector=DETECTOR,
        seed=SEED,
        interval_seconds=INTERVAL_SECONDS,
        min_support=MIN_SUPPORT,
    )
    assert row_alarms, "the outbreak must alarm"
    assert result.alarm_intervals() == row_alarms
    assert [r.interval for r in result.reports] == row_alarms
    checked = 0
    for report in result.reports:
        rows = interval_rows[report.interval]
        assert report.itemsets
        for triaged in report.itemsets:
            (item,) = triaged.itemset.items
            feature, value = decode_item(item)
            exact = int(np.count_nonzero(feature.extract(rows) == value))
            assert triaged.itemset.support == exact, (
                f"interval {report.interval}: {feature.short_name}="
                f"{value} reads {triaged.itemset.support}, the rows "
                f"count {exact}"
            )
            checked += 1
    assert checked
