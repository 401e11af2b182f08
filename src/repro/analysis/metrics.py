"""Ground-truth scoring of extracted item-sets.

The paper's analysts manually verified each frequent item-set against
the traffic ("we verified that indeed several compromised hosts were
flooding the victim...").  Our traces carry exact per-flow event labels,
so the same judgement is computed: an item-set is a *true positive* when
the flows it matches are predominantly event flows, a *false positive*
when they are predominantly baseline.  Event-level recall ("the method
extracted the anomalous flows in all 31 cases") follows by checking that
every event is hit by at least one true-positive item-set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.flows.record import BASELINE_LABEL
from repro.flows.table import FlowTable
from repro.mining.items import FrequentItemset
from repro.mining.transactions import TransactionSet

#: An item-set counts as anomalous when at least this fraction of its
#: matching flows belong to injected events.
DEFAULT_ANOMALOUS_FRACTION = 0.5


@dataclass(frozen=True)
class ItemsetJudgement:
    """Ground-truth verdict for one item-set."""

    itemset: FrequentItemset
    matched_flows: int
    anomalous_flows: int
    dominant_event: int  # event id, or BASELINE_LABEL
    is_true_positive: bool

    @property
    def anomalous_fraction(self) -> float:
        if self.matched_flows == 0:
            return 0.0
        return self.anomalous_flows / self.matched_flows


@dataclass(frozen=True)
class ExtractionScore:
    """Scoring of one interval's extraction against ground truth."""

    judgements: tuple[ItemsetJudgement, ...]
    events_present: tuple[int, ...]
    events_covered: tuple[int, ...]

    @property
    def true_positives(self) -> int:
        return sum(1 for j in self.judgements if j.is_true_positive)

    @property
    def false_positives(self) -> int:
        return len(self.judgements) - self.true_positives

    @property
    def events_missed(self) -> tuple[int, ...]:
        covered = set(self.events_covered)
        return tuple(e for e in self.events_present if e not in covered)

    @property
    def all_events_covered(self) -> bool:
        return not self.events_missed


def judge_itemsets(
    itemsets: list[FrequentItemset],
    flows: FlowTable,
    anomalous_fraction: float = DEFAULT_ANOMALOUS_FRACTION,
    coverage_fraction: float = 0.5,
) -> ExtractionScore:
    """Score item-sets against the labelled flows they were mined from.

    Args:
        itemsets: the extraction output (maximal item-sets).
        flows: the labelled flows of the interval (pre- or post-filter;
            use the same set the operator would inspect - we use the
            interval flows so baseline collisions count against FPs).
        anomalous_fraction: majority threshold for the TP verdict.
        coverage_fraction: an event counts as covered when the *union*
            of the true-positive item-sets matches at least this
            fraction of the event's flows.  The union matters twice
            over: one item-set may cover several concurrent events (two
            spam campaigns summarized by a single ``{dstPort=25}``
            item-set), and one event may be split across several maximal
            item-sets (a DDoS faceted into ``#packets=1/2/3`` variants).

    Returns:
        An :class:`ExtractionScore` with per-item-set judgements and
        event coverage.
    """
    if not 0 < anomalous_fraction <= 1:
        raise ConfigError(
            f"anomalous_fraction must be in (0, 1]: {anomalous_fraction}"
        )
    if not 0 < coverage_fraction <= 1:
        raise ConfigError(
            f"coverage_fraction must be in (0, 1]: {coverage_fraction}"
        )
    transactions = TransactionSet.from_flows(flows)
    labels = flows.label
    event_ids = flows.event_labels()
    events_present = tuple(int(e) for e in event_ids)
    event_sizes = {
        int(e): int((labels == e).sum()) for e in event_ids
    }
    judgements = []
    tp_union = np.zeros(len(flows), dtype=bool)
    for itemset in itemsets:
        mask = transactions.contains_mask(itemset.items)
        matched = int(mask.sum())
        matched_labels = labels[mask]
        anomalous = int((matched_labels != BASELINE_LABEL).sum())
        if matched == 0:
            dominant = BASELINE_LABEL
        else:
            values, counts = np.unique(matched_labels, return_counts=True)
            dominant = int(values[np.argmax(counts)])
        is_tp = matched > 0 and (anomalous / matched) >= anomalous_fraction
        if is_tp:
            tp_union |= mask
        judgements.append(
            ItemsetJudgement(
                itemset=itemset,
                matched_flows=matched,
                anomalous_flows=anomalous,
                dominant_event=dominant,
                is_true_positive=is_tp,
            )
        )
    covered: set[int] = set()
    for event_id, size in event_sizes.items():
        if size == 0:
            continue
        event_matched = int((tp_union & (labels == event_id)).sum())
        if event_matched / size >= coverage_fraction:
            covered.add(event_id)
    return ExtractionScore(
        judgements=tuple(judgements),
        events_present=events_present,
        events_covered=tuple(sorted(covered)),
    )
