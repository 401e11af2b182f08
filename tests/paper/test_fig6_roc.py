"""Fig. 6: ROC curves of the histogram detector, one curve per clone.

Paper: detection rate 0.8 at FPR ~0.03; detection rate 1.0 at FPR
0.05-0.08; at FPR as low as 0.01 only ~40% detected - a steep curve that
bends near the origin, similar across the three clones.  The paper calls
these numbers a lower bound (some "false positives" may be real unknown
anomalies); our ground truth is exact, so the curve can only be cleaner.
"""

import numpy as np

from repro.analysis.roc import auc, operating_point, roc_curve

MULTIPLIERS = np.concatenate(
    [np.linspace(0.5, 4.0, 15), np.linspace(4.5, 14.0, 10)]
)


def test_fig6_roc_curves(two_week):
    run = two_week["run"]
    truth = two_week["trace"].anomalous_intervals()

    curves = [roc_curve(run, truth, MULTIPLIERS, clone=c) for c in range(3)]

    for clone, points in enumerate(curves):
        area = auc(points)
        best_003 = operating_point(points, max_fpr=0.03)
        best_008 = operating_point(points, max_fpr=0.08)
        found = (
            f"clone {clone}: AUC={area:.3f}; "
            f"TPR@FPR<=0.03 = {best_003.tpr:.2f} (paper: 0.8); "
            f"TPR@FPR<=0.08 = {best_008.tpr:.2f} (paper: 1.0)"
        )
        # Steep curve: high detection at small FPR for every clone.
        assert area > 0.9, found
        assert best_003.tpr >= 0.8, found
        assert best_008.tpr >= 0.9, found
