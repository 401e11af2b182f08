"""Unit tests for the per-feature histogram detector."""

import dataclasses
import json

import numpy as np
import pytest

from repro.detection.detector import (
    MIN_PSEUDOCOUNT,
    NO_VALUES,
    DetectorConfig,
    HistogramDetector,
)
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.detection.voting import vote
from repro.errors import CheckpointError, ConfigError
from repro.flows.table import FlowTable
from repro.state import pack_array, unpack_array


def _interval(dst_ports, rng):
    n = len(dst_ports)
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, 1000, n),
        dst_ip=rng.integers(0, 1000, n),
        src_port=rng.integers(1024, 65536, n),
        dst_port=dst_ports,
        protocol=[6] * n,
        packets=[1] * n,
        bytes_=[40] * n,
    )


def _baseline_ports(rng, n=400):
    return rng.integers(1, 1000, n)


@pytest.fixture()
def config():
    return DetectorConfig(
        clones=3, bins=128, vote_threshold=2, training_intervals=8,
        multiplier=4.0,
    )


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(clones=0),
            dict(bins=1),
            dict(vote_threshold=0),
            dict(vote_threshold=4),
            dict(training_intervals=1),
            dict(multiplier=0.0),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(clones=3, bins=64, vote_threshold=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            DetectorConfig(**base)


class TestDetectorConfigNumericEdges:
    """Values that used to be accepted and go wrong one interval into
    the run (a ``ConfigError`` from the KL) or never (a NaN alarm level
    is "no alarm" forever)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pseudocount=-1.0),
            dict(pseudocount=float("nan")),
            dict(pseudocount=float("inf")),
            dict(multiplier=float("nan")),
            dict(multiplier=float("inf")),
            # Positive but below the floor: an int64 count over them
            # overflows the KL log ratio, and training ends in a NaN
            # sigma.
            dict(pseudocount=5e-324),
            dict(pseudocount=float(np.finfo(np.float64).tiny)),
        ],
    )
    def test_non_finite_or_negative_refused(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ConfigError, match=name):
            DetectorConfig(**kwargs)

    def test_zero_pseudocount_refused(self):
        """Unsmoothed, an empty bin that gains flows scores an infinite
        KL, which neither the training sigma nor a checkpoint holds."""
        with pytest.raises(ConfigError, match="pseudocount must be .* > 0"):
            DetectorConfig(pseudocount=0.0)

    def test_small_positive_pseudocount_accepted(self):
        assert DetectorConfig(pseudocount=1e-9).pseudocount == 1e-9
        floor = np.iinfo(np.int64).max / np.finfo(np.float64).max
        assert MIN_PSEUDOCOUNT == floor
        assert DetectorConfig(pseudocount=floor).pseudocount == floor


class TestBinsThatFill:
    """An empty bin that gains flows: at little smoothing, down to the
    least a config accepts, the KL stays finite, so training calibrates
    and the checkpoint resumes."""

    @pytest.fixture()
    def config(self):
        return DetectorConfig(
            clones=3, bins=64, vote_threshold=2, training_intervals=3,
            pseudocount=1e-3,
        )

    def test_training_calibrates(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        detector.observe(_interval(np.full(50, 80), rng))
        detector.observe(_interval(np.arange(1, 200), rng))
        detector.observe(_interval(np.arange(1, 200), rng))
        assert detector.trained
        sigmas = [detector.threshold(c).sigma for c in range(config.clones)]
        assert all(np.isfinite(sigmas))

    def test_checkpoint_after_training_resumes(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        for _ in range(config.training_intervals):
            detector.observe(_interval(np.full(50, 80), rng))
        detector.observe(_interval(np.arange(1, 200), rng))
        state = json.loads(json.dumps(detector.to_state()))
        assert all(np.isfinite(state["prev_kl"]))
        resumed = HistogramDetector(Feature.DST_PORT, config, seed=1)
        resumed.from_state(state)
        flows = _interval(np.arange(1, 200), rng)
        after, expected = resumed.observe(flows), detector.observe(flows)
        assert [c.kl for c in after.clones] == [c.kl for c in expected.clones]
        assert after.voted_values.tolist() == expected.voted_values.tolist()

    def test_floor_pseudocount_calibrates_and_resumes(self, config, rng):
        floor = dataclasses.replace(config, pseudocount=MIN_PSEUDOCOUNT)
        self.test_training_calibrates(floor, rng)
        self.test_checkpoint_after_training_resumes(floor, rng)


class TestTrainingPhase:
    def test_not_trained_initially(self, config):
        detector = HistogramDetector(Feature.DST_PORT, config)
        assert not detector.trained
        with pytest.raises(ConfigError, match="not calibrated"):
            detector.threshold(0)

    def test_trained_after_training_intervals(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        for _ in range(config.training_intervals):
            detector.observe(_interval(_baseline_ports(rng), rng))
        assert detector.trained
        assert detector.threshold(0).sigma > 0

    def test_no_alarms_during_training(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        for _ in range(config.training_intervals - 1):
            obs = detector.observe(_interval(_baseline_ports(rng), rng))
            assert not obs.alarm

    def test_series_lengths_track_intervals(self, config, rng):
        bank = DetectorBank(config, features=(Feature.DST_PORT,), seed=1)
        for _ in range(5):
            bank.observe(_interval(_baseline_ports(rng), rng))
        run = bank.detection_run()
        assert len(run.kl_series(Feature.DST_PORT, 0)) == 5
        assert len(run.diff_series(Feature.DST_PORT, 0)) == 5
        assert bank.detectors[Feature.DST_PORT].interval == 4

    def test_state_stops_growing_once_calibrated(self, config, rng):
        """Training diffs are dropped at calibration and no per-interval
        series is kept, so the checkpointed state has one size from the
        end of training on."""
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        sizes = []
        for _ in range(config.training_intervals + 6):
            detector.observe(_interval(_baseline_ports(rng), rng))
            state = detector.to_state()
            sizes.append(len(json.dumps(state["training_diffs"])))
        assert detector.trained
        assert state["training_diffs"] == [[]] * config.clones
        assert set(state) == {
            "interval", "prev", "prev_kl", "training_diffs", "thresholds",
        }
        assert len(set(sizes[config.training_intervals - 1:])) == 1


class TestDetection:
    def _run_with_anomaly(self, config, rng, anomaly_ports, seed=1):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=seed)
        for _ in range(config.training_intervals + 4):
            obs = detector.observe(_interval(_baseline_ports(rng), rng))
        ports = np.concatenate([_baseline_ports(rng), anomaly_ports])
        return detector, detector.observe(_interval(ports, rng))

    def test_alarm_on_concentrated_disruption(self, config, rng):
        detector, obs = self._run_with_anomaly(
            config, rng, np.full(2000, 7000)
        )
        assert obs.alarm
        assert obs.alarm_votes >= 2

    def test_voted_values_contain_anomalous_port(self, config, rng):
        _, obs = self._run_with_anomaly(config, rng, np.full(2000, 7000))
        assert 7000 in obs.voted_values.tolist()

    def test_voted_values_mostly_clean(self, config, rng):
        _, obs = self._run_with_anomaly(config, rng, np.full(2000, 7000))
        # Voting (V=2, m=128) should strip most colliding normal ports.
        assert len(obs.voted_values) < 30

    def test_no_alarm_on_stable_traffic(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        alarms = []
        for _ in range(config.training_intervals + 10):
            obs = detector.observe(_interval(_baseline_ports(rng), rng))
            alarms.append(obs.alarm)
        assert sum(alarms) <= 1  # allow one statistical fluke

    def test_volume_doubling_without_shape_change_silent(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=2)
        for _ in range(config.training_intervals + 2):
            detector.observe(_interval(_baseline_ports(rng), rng))
        obs = detector.observe(_interval(_baseline_ports(rng, 800), rng))
        assert not obs.alarm

    def test_clone_observations_structure(self, config, rng):
        detector, obs = self._run_with_anomaly(
            config, rng, np.full(2000, 7000)
        )
        assert len(obs.clones) == config.clones
        for clone in obs.clones:
            if clone.alarm:
                assert clone.bins  # localized at least one bin
                assert clone.bin_identification is not None
                assert clone.bin_identification.converged

    def test_feature_recorded_in_observation(self, config, rng):
        detector = HistogramDetector(Feature.SRC_IP, config, seed=1)
        obs = detector.observe(_interval(_baseline_ports(rng), rng))
        assert obs.feature is Feature.SRC_IP
        assert obs.interval == 0

    def test_hash_streams_stable_across_processes(self, config):
        """Regression: the per-feature hash salt must not depend on
        Python's randomized string hashing (PYTHONHASHSEED), or
        detection results change between runs."""
        import subprocess
        import sys

        code = (
            "from repro.detection.detector import HistogramDetector, "
            "DetectorConfig\n"
            "from repro.detection.features import Feature\n"
            "d = HistogramDetector(Feature.DST_PORT, "
            "DetectorConfig(training_intervals=2), seed=1)\n"
            "print(d.hash_fns[0].a)\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin"},
            ).stdout
            for seed in (0, 1)
        }
        assert len(outputs) == 1

    def test_distinct_features_use_distinct_hash_streams(self, config):
        a = HistogramDetector(Feature.DST_PORT, config, seed=1)
        b = HistogramDetector(Feature.SRC_PORT, config, seed=1)
        assert a.hash_fns[0] != b.hash_fns[0]


class TestRestoreRefusesCorruptCounts:
    """A reference histogram holding NaN, a negative or inf is refused
    at restore, naming the clone - not one interval later from inside
    the KL, worded as a distribution that does not sum to 1."""

    @pytest.fixture()
    def state(self, config, rng):
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        for _ in range(3):
            detector.observe(_interval(_baseline_ports(rng), rng))
        return detector.to_state()

    @pytest.mark.parametrize(
        "bad", [float("nan"), -1.0, float("inf"), float("-inf")]
    )
    def test_corrupt_counts_refused_naming_the_clone(
        self, config, state, bad, recwarn
    ):
        counts = unpack_array(state["prev"][1]).astype(np.float64)
        counts[7] = bad
        state["prev"][1] = pack_array(counts)
        fresh = HistogramDetector(Feature.DST_PORT, config, seed=1)
        with pytest.raises(CheckpointError, match="clone 1 .*non-negative"):
            fresh.from_state(state)
        assert fresh.interval == -1  # nothing was restored
        assert not recwarn.list


class TestQuietFeatureSkipsTheVote:
    @staticmethod
    def _spy(monkeypatch):
        import repro.detection.detector as detector_module

        calls = []

        def counting_vote(value_sets, min_votes):
            calls.append(len(value_sets))
            return vote(value_sets, min_votes)

        monkeypatch.setattr(detector_module, "vote", counting_vote)
        return calls

    def test_quiet_bank_pass_calls_vote_zero_times(
        self, config, rng, monkeypatch
    ):
        calls = self._spy(monkeypatch)
        bank = DetectorBank(config, seed=1)
        flows = _interval(_baseline_ports(rng), rng)
        for _ in range(config.training_intervals + 4):
            report = bank.observe(flows)
            assert not report.alarm
        assert calls == []
        for obs in report.observations.values():
            assert obs.voted_values is NO_VALUES
            assert not obs.voted_values.flags.writeable
            assert all(c.suspicious_values is NO_VALUES for c in obs.clones)

    def test_one_vote_per_alarmed_feature(self, config, rng, monkeypatch):
        calls = self._spy(monkeypatch)
        bank = DetectorBank(config, seed=1)
        alarmed = 0
        for _ in range(config.training_intervals + 12):
            report = bank.observe(_interval(_baseline_ports(rng), rng))
            alarmed += sum(o.alarm for o in report.observations.values())
        assert len(calls) == alarmed

    def test_alarmed_feature_still_votes(self, config, rng, monkeypatch):
        calls = self._spy(monkeypatch)
        detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
        for _ in range(config.training_intervals + 4):
            detector.observe(_interval(_baseline_ports(rng), rng))
        assert calls == []
        ports = np.concatenate([_baseline_ports(rng), np.full(2000, 7000)])
        obs = detector.observe(_interval(ports, rng))
        assert obs.alarm
        assert calls == [config.clones]
        assert 7000 in obs.voted_values.tolist()
