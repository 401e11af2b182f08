"""Fig. 4: KL distance time series and its first difference (srcIP, ~2 days).

Paper: the KL time series of the source-IP feature over roughly two days
shows spikes at anomalies over a quiet baseline; the first difference is
~N(0, sigma^2) and the dashed MAD threshold separates the spikes.  We
regenerate the two-day slice with two injected events and verify the
series shape: spikes at the event intervals, quiet diurnal baseline, and
first-difference normality in the bulk.
"""

import numpy as np

from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.traffic.scenarios import two_day_trace

TRAINING = 48


def _run(trace):
    config = DetectorConfig(
        clones=3, bins=1024, vote_threshold=3, training_intervals=TRAINING
    )
    bank = DetectorBank(config, features=(Feature.SRC_IP,), seed=5)
    return bank.run(trace.flows, trace.interval_seconds, origin=0.0)


def test_fig4_kl_time_series():
    trace = two_day_trace(flows_per_interval=1500, seed=11)

    run = _run(trace)

    kl = run.kl_series(Feature.SRC_IP, clone=0)
    diff = run.diff_series(Feature.SRC_IP, clone=0)
    sigma = run.sigma(Feature.SRC_IP, clone=0)
    threshold = 4.0 * sigma
    event_intervals = sorted(trace.anomalous_intervals())

    quiet = np.ones(len(kl), dtype=bool)
    for idx in event_intervals:
        quiet[max(0, idx - 1): idx + 2] = False
    quiet[:2] = False

    # Spikes at the events dominate the quiet baseline (the srcIP
    # histogram is sparse at this scale, so compare against the quiet
    # maximum, and against the actual alarm rule on the difference).
    for idx in event_intervals:
        assert kl[idx] > kl[quiet].max(), (
            f"KL {kl[idx]:.3f} at event {idx}; quiet max "
            f"{kl[quiet].max():.3f}"
        )
        assert diff[idx] > threshold, (
            f"diff {diff[idx]:+.3f} at event {idx}; threshold "
            f"4*sigma = {threshold:.4f}"
        )
    # One-sided rule: the baseline never crosses upward (allow one fluke).
    crossings = int((diff[quiet] > threshold).sum())
    assert crossings <= 2
    # First difference roughly centred on zero in the bulk.
    assert abs(np.median(diff[quiet])) < sigma
