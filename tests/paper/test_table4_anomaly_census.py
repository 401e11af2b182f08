"""Table IV: identified anomalies in two weeks of NetFlow data.

Paper: 36 events of seven classes inside 31 anomalous 15-minute
intervals, with per-class occurrence counts and average flow counts
(DDoS by far the largest).  Our trace is constructed with the same event
mix, so the census must reproduce it exactly; the interesting measured
quantity is the *detection* outcome per class: the histogram detectors
alarm on every one of the 31 intervals at the default threshold.
"""

from collections import defaultdict

from repro.traffic.scenarios import TABLE4_OCCURRENCES


def _census(trace):
    by_class: dict[str, list[int]] = defaultdict(list)
    for event in trace.events:
        by_class[event.kind].append(event.flow_count)
    return by_class


def test_table4_census_and_detection(two_week):
    trace = two_week["trace"]
    run = two_week["run"]

    by_class = _census(trace)

    gt_intervals = trace.anomalous_intervals()
    alarms = set(run.alarm_intervals())
    detected = gt_intervals & alarms
    extra = alarms - gt_intervals

    # Census is exact by construction.
    assert len(gt_intervals) == 31
    assert len(trace.events) == 36
    for kind, expected in TABLE4_OCCURRENCES.items():
        assert len(by_class[kind]) == expected
    # DDoS is the largest class by average flows, as in the paper.
    averages = {k: sum(v) / len(v) for k, v in by_class.items()}
    assert max(averages, key=averages.get) == "ddos", averages
    # The paper's extraction evaluation presumes the detector finds the
    # anomalous intervals; at this scale all 31 must alarm.
    assert len(detected) == 31, (
        f"{len(detected)}/{len(gt_intervals)} anomalous intervals "
        f"alarmed, {len(extra)} extra alarms"
    )
