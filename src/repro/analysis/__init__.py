"""Evaluation analytics: voting model, ROC curves, ground-truth scoring."""

from repro.analysis.metrics import (
    DEFAULT_ANOMALOUS_FRACTION,
    ExtractionScore,
    ItemsetJudgement,
    judge_itemsets,
)
from repro.analysis.roc import RocPoint, auc, operating_point, roc_curve
from repro.analysis.voting_model import (
    binomial_tail,
    expected_normal_values,
    fig7_grid,
    fig8_grid,
    p_anomalous_included,
    p_anomalous_missed,
    p_normal_included,
    simulate_anomalous_miss,
    simulate_normal_inclusion,
)

__all__ = [
    "DEFAULT_ANOMALOUS_FRACTION",
    "ExtractionScore",
    "ItemsetJudgement",
    "judge_itemsets",
    "RocPoint",
    "auc",
    "operating_point",
    "roc_curve",
    "binomial_tail",
    "expected_normal_values",
    "fig7_grid",
    "fig8_grid",
    "p_anomalous_included",
    "p_anomalous_missed",
    "p_normal_included",
    "simulate_anomalous_miss",
    "simulate_normal_inclusion",
]
