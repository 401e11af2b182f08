"""Differential property: one bank pass == the per-feature path.

A :class:`~repro.detection.manager.DetectorBank` bins every feature's
value counts with one hash and one ``bincount`` and scores each clone
against the smoothed histogram the previous interval carried forward.
``tests/detection/reference.py ReferenceDetector`` keeps the path it
replaced - a ``CloneSet`` per feature, every clone re-scored by
``kl_rows`` against its raw previous counts, an alarm's bins found by
the one-bin-per-round loop and mapped to values by re-hashing - and
the bank's ``observe_snapshots`` adapter is driven by those clone sets
too.  All three must agree with ``==`` on every KL, difference, alarm,
bin, suspicious value and vote; a bank resumed mid-stream from its
checkpoint (the carried reference rebuilt from the raw counts) must
agree with them as well.

The bank scores its ``F`` features' clones as rows of one
:class:`~repro.detection.detector.CloneScorer`, a lone
:class:`~repro.detection.detector.HistogramDetector` as the one row of
its own: the two must agree on every record and every checkpoint
document, resumed or not, and the document's bytes are pinned.
"""

import copy
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detection.detector import (
    CloneScorer,
    DetectorConfig,
    HistogramDetector,
)
from repro.detection.features import CustomFeature, Feature
from repro.detection.manager import DetectorBank
from repro.errors import ConfigError, ReproError, SketchError
from repro.flows.table import FlowTable
from repro.state import canonical_json
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
    pseudocount=st.sampled_from((1e-3, 0.5, 3.0)),
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

    # Resumed mid-stream from a JSON round-tripped checkpoint.
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


@pytest.mark.parametrize("pseudocount", [1e-3, 0.5])
def test_empty_intervals_do_not_warn(pseudocount):
    """Empty intervals - the first two included, before any reference
    exists - score without a numpy warning or an error, agree with the
    per-feature path, and a checkpoint taken right after them resumes
    to the same outcomes."""
    config = DetectorConfig(
        clones=3, bins=64, vote_threshold=2, training_intervals=3,
        pseudocount=pseudocount,
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
        first = DetectorBank(config, FEATURES, seed=2)
        head = _run(_bank_step(first), tables[:2])
        resumed = DetectorBank(config, FEATURES, seed=2)
        resumed.from_state(json.loads(json.dumps(first.to_state())))
        assert head + _run(_bank_step(resumed), tables[2:]) == observed


# ----------------------------------------------------------------------
# One scorer: a bank's rows == F lone detectors
# ----------------------------------------------------------------------
#: Calibrates after six intervals; a low multiplier over few bins makes
#: the bursts alarm, so bins, traces and votes are compared too.
ONE_SCORER = DetectorConfig(
    clones=3, bins=64, vote_threshold=2, training_intervals=6,
    multiplier=0.5,
)


def _full(obs):
    """Everything an observation says, floats as their repr."""
    return (
        obs.interval,
        obs.trained,
        [
            (
                repr(c.kl), repr(c.diff), c.alarm, c.bins,
                c.suspicious_values.tolist(),
                None
                if c.bin_identification is None
                else [repr(kl) for kl in c.bin_identification.kl_trace],
            )
            for c in obs.clones
        ],
        obs.voted_values.tolist(),
    )


def _states(bank, lone):
    """Each feature's checkpoint, from the bank and from its lone
    detector (which must agree)."""
    held = bank.to_state()["detectors"]
    states = {f.short_name: canonical_json(held[f.short_name]) for f in lone}
    assert states == {
        f.short_name: canonical_json(d.to_state()) for f, d in lone.items()
    }
    return states


def _agree(bank, lone, tables):
    """Feed ``tables`` to both; their records, which must agree."""
    records = []
    for flows in tables:
        report = bank.observe(flows)
        seen = {f.short_name: _full(o) for f, o in report.observations.items()}
        assert seen == {
            f.short_name: _full(d.observe(flows)) for f, d in lone.items()
        }
        records.append(seen)
        _states(bank, lone)
    return records


def _restored(bank_doc, config=ONE_SCORER, seed=3):
    """A bank and lone detectors restored from a JSON round trip of a
    bank checkpoint."""
    doc = json.loads(json.dumps(bank_doc))
    bank = DetectorBank(config, FEATURES, seed=seed)
    bank.from_state(doc)
    lone = {f: HistogramDetector(f, config, seed=seed) for f in FEATURES}
    for feature, detector in lone.items():
        detector.from_state(doc["detectors"][feature.short_name])
    return bank, lone


@pytest.mark.parametrize(
    "cut", [1, 3, 6, 9], ids=["first", "training", "calibrating", "calibrated"]
)
def test_bank_rows_equal_lone_detectors_across_a_resume(cut):
    tables = _trace(11, 16, 0.1)
    bank = DetectorBank(ONE_SCORER, FEATURES, seed=3)
    lone = {f: HistogramDetector(f, ONE_SCORER, seed=3) for f in FEATURES}
    records = _agree(bank, lone, tables)
    alarms = sum(
        clone[2] for record in records for _, _, clones, _ in record.values()
        for clone in clones
    )
    assert alarms > 0, "no clone alarmed: bins and votes went unchecked"

    first = DetectorBank(ONE_SCORER, FEATURES, seed=3)
    for flows in tables[:cut]:
        first.observe(flows)
    resumed, resumed_lone = _restored(first.to_state())
    assert canonical_json(resumed.to_state()) == canonical_json(first.to_state())
    assert _agree(resumed, resumed_lone, tables[cut:]) == records[cut:]
    assert canonical_json(resumed.to_state()) == canonical_json(bank.to_state())


def test_clones_restored_without_counts_score_zero_then_resume():
    """A hand-built checkpoint whose clones hold no previous counts in
    some features: those clones score 0 and diff 0 (never alarm) for
    one interval, every other clone as if uninterrupted, in the bank
    and in the lone detectors alike."""
    tables = _trace(11, 16, 0.1)
    first = DetectorBank(ONE_SCORER, FEATURES, seed=3)
    for flows in tables[:9]:
        first.observe(flows)
    doc = copy.deepcopy(first.to_state())
    gaps = {"srcIP": [1], "dstPort": [0, 2], "proto": [0, 1, 2]}
    for name, clones in gaps.items():
        for c in clones:
            doc["detectors"][name]["prev"][c] = None
    bank, lone = _restored(doc)
    assert canonical_json(bank.to_state()) == canonical_json(
        json.loads(json.dumps(doc))
    )
    after = _agree(bank, lone, tables[9:])
    first.observe(tables[9])
    uninterrupted = {
        f.short_name: d.to_state() for f, d in first.detectors.items()
    }
    for name, (_, _, clones, _) in after[0].items():
        for c, (kl, diff, alarm, *_rest) in enumerate(clones):
            if c in gaps.get(name, ()):
                assert (kl, diff, alarm) == ("0.0", "0.0", False)
            else:
                assert kl == repr(uninterrupted[name]["prev_kl"][c])


def test_a_bank_detector_observed_alone_moves_only_its_row():
    """``bank.detectors[f].observe`` scores the bank's row ``f`` alone:
    the other rows keep their state, and every row still equals its
    lone detector."""
    tables = _trace(12, 10, 0.0)
    bank = DetectorBank(ONE_SCORER, FEATURES, seed=3)
    lone = {f: HistogramDetector(f, ONE_SCORER, seed=3) for f in FEATURES}
    _agree(bank, lone, tables[:7])
    before = _states(bank, lone)
    row = bank.detectors[Feature.DST_IP]
    assert _full(row.observe(tables[7])) == _full(
        lone[Feature.DST_IP].observe(tables[7])
    )
    after = _states(bank, lone)
    assert {k for k in after if after[k] != before[k]} == {"dstIP"}
    assert row.interval == 7
    assert bank.detectors[Feature.SRC_IP].interval == 6


def test_a_detector_refuses_a_scorer_it_is_not_a_row_of():
    scorer = CloneScorer(ONE_SCORER, FEATURES[:2])
    with pytest.raises(ConfigError, match="not a row"):
        HistogramDetector(Feature.DST_PORT, ONE_SCORER, scorer=scorer)
    with pytest.raises(ConfigError, match="not a row"):
        HistogramDetector(Feature.SRC_IP, DetectorConfig(), scorer=scorer)


#: ``canonical_json(bank.to_state())`` after ``_quiet_bank``'s runs.
#: Every KL in these runs is exactly 0 (each interval repeats the
#: last), so no hashed byte depends on the host's ``log2``.  A change
#: to the detector checkpoint layout moves them: bump the checkpoint
#: version and re-record.  Per-feature scoring over per-clone Python
#: lists, before the bank's one-pass scorer, wrote the same bytes.
GOLDEN_BANK_TRAINING = (
    "b8fa8170b825cda9160b311d8fd09988a10352d7ab1b054877e4627877d7c044"
)
GOLDEN_BANK_CALIBRATED = (
    "6e58af177418ce94ecdd8cfc2facc218abbacb3893c4ad96b3396282545fa71a"
)


def _quiet_bank(intervals):
    config = DetectorConfig(
        clones=3, bins=64, vote_threshold=2, training_intervals=5
    )
    bank = DetectorBank(config, FEATURES, seed=9)
    (flows,) = _trace(21, 1, 0.0)
    for _ in range(intervals):
        bank.observe(flows)
    return bank.to_state()


@pytest.mark.parametrize(
    "intervals, golden",
    [(4, GOLDEN_BANK_TRAINING), (6, GOLDEN_BANK_CALIBRATED)],
    ids=["training", "calibrated"],
)
def test_bank_checkpoint_bytes(intervals, golden):
    doc = _quiet_bank(intervals)
    for state in doc["detectors"].values():
        assert set(state["prev_kl"]) == {0.0}
        assert (state["thresholds"][0] is None) == (intervals < 5)
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == golden
