"""Differential property: one bank pass == the per-feature path.

A :class:`~repro.detection.manager.DetectorBank` bins every feature's
value counts with one hash and one ``bincount`` and scores each clone
against the smoothed histogram the previous interval carried forward.
``tests/detection/reference.py ReferenceDetector`` keeps the path it
replaced - a ``CloneSet`` per feature, every clone re-scored by
``kl_rows`` against its raw previous counts - and the bank's
``observe_snapshots`` adapter is driven by those clone sets too.  All
three must agree with ``==`` on every KL, difference, alarm, bin,
suspicious value and vote; a bank resumed mid-stream from its
checkpoint (the carried reference rebuilt from the raw counts) must
agree with them as well.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detection.detector import DetectorConfig
from repro.detection.features import CustomFeature, Feature
from repro.detection.manager import DetectorBank
from repro.errors import ReproError, SketchError
from repro.flows.table import FlowTable
from tests.detection.reference import ReferenceDetector


def _subnet(values):
    return values >> np.uint64(4)


def _signed_offset(values):
    return values.astype(np.int64) - 100


#: Five paper features, a column that holds one distinct value in
#: every non-empty interval, and a custom feature.
FEATURES = (
    Feature.SRC_IP,
    Feature.DST_IP,
    Feature.SRC_PORT,
    Feature.DST_PORT,
    Feature.PACKETS,
    Feature.PROTOCOL,
    CustomFeature("dstNet", "dst_ip", transform=_subnet),
)


def _trace(seed, intervals, empty_rate):
    """Small-domain intervals (collisions in every bin count), some
    empty, some carrying a one-destination burst."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(intervals):
        n = 0 if rng.random() < empty_rate else int(rng.integers(1, 80))
        dst = rng.integers(0, 40, n)
        if n and rng.random() < 0.3:
            dst[: n // 2] = 7
        tables.append(
            FlowTable.from_arrays(
                src_ip=rng.integers(0, 60, n),
                dst_ip=dst,
                src_port=rng.integers(1024, 1100, n),
                dst_port=rng.choice([25, 53, 80, 443, 445], n),
                protocol=[6] * n,
                packets=rng.integers(1, 4, n),
                bytes_=[40] * n,
            )
        )
    return tables


def _observation(obs):
    """An observation with every float as its repr (``nan == nan``)."""
    return (
        [
            (repr(c.kl), repr(c.diff), c.alarm, c.bins,
             c.suspicious_values.tolist())
            for c in obs.clones
        ],
        obs.voted_values.tolist(),
    )


def _run(step, tables):
    """Per interval the outcome of ``step`` - its record, or the error
    it raised (the run ends there)."""
    outcomes = []
    for flows in tables:
        try:
            outcomes.append(step(flows))
        except ReproError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            break
    return outcomes


def _bank_step(bank):
    def step(flows):
        report = bank.observe(flows)
        return {f.short_name: _observation(o) for f, o in report.observations.items()}

    return step


def _reference_step(detectors):
    def step(flows):
        record = {}
        for feature, detector in detectors.items():
            clones, voted = detector.observe(flows)
            record[feature.short_name] = (
                [
                    (repr(kl), repr(diff), alarm, bins, values.tolist())
                    for kl, diff, alarm, bins, values in clones
                ],
                voted.tolist(),
            )
        return record

    return step


def _adapter_step(bank, detectors):
    """The bank's ``observe_snapshots`` fed the reference's clone sets
    (``reference_step`` must run first on the same interval)."""

    def step(flows):
        report = bank.observe_snapshots(
            {f: d.clones.snapshots() for f, d in detectors.items()},
            flow_count=len(flows),
        )
        return {f.short_name: _observation(o) for f, o in report.observations.items()}

    return step


configs = st.builds(
    lambda clones, vote, bins, training, multiplier, pseudocount: DetectorConfig(
        clones=clones,
        bins=bins,
        vote_threshold=min(vote, clones),
        training_intervals=training,
        multiplier=multiplier,
        pseudocount=pseudocount,
    ),
    clones=st.sampled_from((1, 3)),
    vote=st.integers(min_value=1, max_value=3),
    bins=st.sampled_from((7, 64, 100)),
    training=st.sampled_from((2, 3, 5)),
    multiplier=st.sampled_from((0.5, 3.0)),
    pseudocount=st.sampled_from((0.0, 0.5, 3.0)),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=configs,
    trace_seed=st.integers(min_value=0, max_value=2**32 - 1),
    intervals=st.integers(min_value=1, max_value=12),
    empty_rate=st.sampled_from((0.0, 0.25)),
    cut=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
)
def test_bank_pass_equals_per_feature_path(
    config, trace_seed, intervals, empty_rate, cut, seed
):
    tables = _trace(trace_seed, intervals, empty_rate)
    bank = DetectorBank(config, FEATURES, seed=seed)
    reference = {f: ReferenceDetector(f, config, seed) for f in FEATURES}
    adapter = DetectorBank(config, FEATURES, seed=seed)
    ref_step = _reference_step(reference)
    adapter_step = _adapter_step(adapter, reference)

    expected, adapted = [], []
    for flows in tables:
        try:
            expected.append(ref_step(flows))
        except ReproError as exc:
            expected.append((type(exc).__name__, str(exc)))
            break
        try:
            adapted.append(adapter_step(flows))
        except ReproError as exc:
            adapted.append((type(exc).__name__, str(exc)))
            break
    assert _run(_bank_step(bank), tables) == expected
    assert adapted == expected[: len(adapted)]

    # Resumed mid-stream from a JSON round-tripped checkpoint.  At
    # pseudocount 0 a KL can be infinite, which a checkpoint does not
    # hold (``finite`` fields), so only smoothed runs resume.
    if config.pseudocount == 0:
        return
    cut = min(cut, len(tables))
    first = DetectorBank(config, FEATURES, seed=seed)
    head = _run(_bank_step(first), tables[:cut])
    if head and isinstance(head[-1], tuple):
        return  # the error ends the stream before the cut
    resumed = DetectorBank(config, FEATURES, seed=seed)
    resumed.from_state(json.loads(json.dumps(first.to_state())))
    assert head + _run(_bank_step(resumed), tables[cut:]) == expected


@pytest.mark.parametrize("clones", [1, 3])
def test_negative_signed_key_is_refused_before_any_state_moves(clones):
    config = DetectorConfig(
        clones=clones, bins=100, vote_threshold=1, training_intervals=2
    )
    signed = CustomFeature("signedPort", "dst_port", transform=_signed_offset)
    features = (Feature.DST_PORT, signed)
    (flows,) = _trace(3, 1, 0.0)
    bank = DetectorBank(config, features, seed=1)
    with pytest.raises(SketchError, match="non-negative"):
        bank.observe(flows)
    assert all(d.interval == -1 for d in bank.detectors.values())
    signed_counts = (np.array([-2, 5]), np.array([1, 1]))
    with pytest.raises(SketchError, match="non-negative"):
        bank.observe_counts(
            {"dstPort": signed_counts, "signedPort": signed_counts}, 2
        )
    assert all(d.interval == -1 for d in bank.detectors.values())
    with pytest.raises(SketchError, match="non-negative"):
        ReferenceDetector(signed, config, 1).observe(flows)


def test_empty_intervals_at_pseudocount_zero_do_not_warn():
    config = DetectorConfig(
        clones=3, bins=64, vote_threshold=2, training_intervals=50,
        pseudocount=0.0,
    )
    tables = _trace(5, 10, 0.5)
    tables[0] = tables[1] = FlowTable.empty()
    bank = DetectorBank(config, FEATURES, seed=2)
    reference = {f: ReferenceDetector(f, config, 2) for f in FEATURES}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        observed = _run(_bank_step(bank), tables)
    assert observed == _run(_reference_step(reference), tables)
    assert all(isinstance(record, dict) for record in observed)
