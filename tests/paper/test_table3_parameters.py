"""Table III: parameters of the approach, their ranges, our defaults.

The table is documentation, kept here as data, plus a check of full
pipeline construction (5 detectors x 3 clones x 1024 bins, which the
paper sizes at 472 kB of histogram memory).
"""

from dataclasses import dataclass

from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor


@dataclass(frozen=True, slots=True)
class ParameterRow:
    """One row of Table III."""

    symbol: str
    description: str
    paper_range: str
    repro_default: str


#: Reproduction of Table III: parameters, descriptions, and the ranges
#: used in Section III, plus this implementation's defaults.
TABLE3_PARAMETERS = (
    ParameterRow(
        symbol="n",
        description="number of histogram detectors (traffic features)",
        paper_range="5 (srcIP, dstIP, srcPort, dstPort, #packets)",
        repro_default="5",
    ),
    ParameterRow(
        symbol="L",
        description="measurement interval length",
        paper_range="5, 10, 15 min",
        repro_default="15 min (900 s)",
    ),
    ParameterRow(
        symbol="k / m",
        description="hash length k; bins per histogram m = 2^k",
        paper_range="m in {512, 1024, 2048}",
        repro_default="m = 1024",
    ),
    ParameterRow(
        symbol="K (C)",
        description="number of histogram clones per detector",
        paper_range="1-25 (simulation); 3 (trace experiments)",
        repro_default="3",
    ),
    ParameterRow(
        symbol="V",
        description="clones that must agree on a feature value (voting)",
        paper_range="1-K; 3 (trace experiments)",
        repro_default="3",
    ),
    ParameterRow(
        symbol="s",
        description="Apriori minimum support (flows)",
        paper_range="3000-10000 (~1-10% of input flows)",
        repro_default="scaled with workload",
    ),
)


def test_table3_parameters():
    extractor = AnomalyExtractor(ExtractionConfig(), seed=0)

    config = extractor.config
    histogram_bytes = (
        len(config.features) * config.detector.clones
        * config.detector.bins * 8
    )
    assert histogram_bytes // 1024 == 120, (
        f"histogram memory {histogram_bytes / 1024:.0f} kB "
        "(paper: 472 kB for counters + value maps)"
    )
    assert len(config.features) == 5


class TestTable3:
    def test_covers_all_paper_parameters(self):
        symbols = {row.symbol for row in TABLE3_PARAMETERS}
        assert {"n", "L", "k / m", "K (C)", "V", "s"} <= symbols

    def test_rows_have_descriptions_and_ranges(self):
        for row in TABLE3_PARAMETERS:
            assert row.description
            assert row.paper_range
            assert row.repro_default
