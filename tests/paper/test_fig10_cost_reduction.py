"""Fig. 10: average decrease in classification cost vs minimum support.

Paper: R = |F| / |I| (flows in the flagged interval over item-sets in
the report) averaged over the anomalous intervals grows from ~600k to
~800k as the minimum support rises from 3000 to 10000, saturating once
the report reaches its irreducible size.  Intervals hold 0.7-2.6M flows.

Our intervals are ~1/750 the size, so the absolute reduction scales
accordingly (~800-1200); the shape claims - monotone growth with s and
saturation - are scale-free.
"""

from repro.core.cost import cost_curve
from tests.paper.supports import SUPPORT_GRID


def test_fig10_cost_reduction(extraction_sweep):
    per_interval = {
        support: [
            (n_flows, len(itemsets))
            for _, n_flows, itemsets, _ in rows
            if itemsets
        ]
        for support, rows in extraction_sweep.items()
    }

    curve = cost_curve(per_interval)

    found = "; ".join(
        f"s={point.min_support} (paper s={SUPPORT_GRID[point.min_support]}): "
        f"mean R={point.mean_reduction:.0f} "
        f"mean item-sets={point.mean_itemsets:.1f} "
        f"over {point.intervals} intervals"
        for point in curve
    ) + " (paper R: 600k-800k at full scale)"

    reductions = [p.mean_reduction for p in curve]
    # Monotone growth with minimum support (the Fig. 10 shape).
    assert reductions == sorted(reductions), found
    # Saturation: the relative gain of the last step is smaller than
    # the total dynamic range would suggest for linear growth.
    assert reductions[-1] / reductions[0] < 5.0, found
    # Scale-adjusted magnitude: paper's 600k-800k / 750 ~ 800-1100.
    assert 200 < reductions[-1] < 10_000, found
    # The report stays small in absolute terms - the practical point.
    assert curve[-1].mean_itemsets < 10, found
