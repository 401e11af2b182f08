"""Table I: meta-data provided by anomaly detectors.

The table itself is documentation, kept here as data; the measurable
part is the meta-data *interface* (:mod:`repro.detection.metadata`):
matching an interval's flows against per-feature suspicious values.
We check union matching - the operation the prefilter runs on every
alarm.
"""

from dataclasses import dataclass

import numpy as np

from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.traffic import TraceGenerator, switch_like


@dataclass(frozen=True, slots=True)
class DetectorDescription:
    """One row of the paper's Table I."""

    detector: str
    technique: str
    metadata: str


#: Reproduction of Table I: useful meta-data provided by well-known
#: anomaly detectors.  The histogram-based detector of this library is
#: the first row; the others are cited context.
TABLE1_DETECTORS = (
    DetectorDescription(
        detector="Histogram-based detector (this work)",
        technique="KL distance on hashed feature histograms",
        metadata="affected feature values (IPs, ports, flow sizes)",
    ),
    DetectorDescription(
        detector="Volume / SNMP detector (Lakhina et al. 2004)",
        technique="PCA on link byte counts",
        metadata="origin-destination flow carrying the anomaly",
    ),
    DetectorDescription(
        detector="Entropy detector (Lakhina et al. 2005, Wagner 2005)",
        technique="feature entropy time series",
        metadata="feature distributions that changed",
    ),
    DetectorDescription(
        detector="Sketch-based change detection (Krishnamurthy 2003)",
        technique="count-min style forecasting per key",
        metadata="hash bins / keys with forecast errors",
    ),
    DetectorDescription(
        detector="Gamma-law sketch detector (Dewaele et al. 2007)",
        technique="random projections + Gamma marginals",
        metadata="anomalous source/destination addresses",
    ),
)


def test_table1_registry_and_matching():
    generator = TraceGenerator(switch_like(20_000), seed=3)
    flows = generator.generate_interval(flow_count=20_000)
    metadata = Metadata()
    metadata.add(Feature.DST_PORT, np.array([7000, 9996], dtype=np.uint64))
    metadata.add(
        Feature.DST_IP,
        flows.dst_ip[:5].astype(np.uint64),
    )
    metadata.add(Feature.PACKETS, np.array([1], dtype=np.uint64))

    mask = metadata.match_union(flows)

    assert mask.dtype == bool
    assert len(mask) == len(flows)


class TestTable1:
    def test_histogram_detector_first_row(self):
        assert "Histogram" in TABLE1_DETECTORS[0].detector
        assert "feature values" in TABLE1_DETECTORS[0].metadata

    def test_has_multiple_detector_families(self):
        assert len(TABLE1_DETECTORS) >= 4
