"""ParallelEngine and the jobs>1 extraction path end-to-end."""

import pytest

import repro.api as api
from repro.core import AnomalyExtractor, ExtractionConfig
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.mining.transactions import TransactionSet
from repro.parallel.engine import ParallelEngine

_DETECTOR = DetectorConfig(
    clones=3, bins=128, vote_threshold=3, training_intervals=8
)


def _config(**overrides):
    params = dict(detector=_DETECTOR, min_support=60)
    params.update(overrides)
    return ExtractionConfig(**params)


class TestEngine:
    def test_engine_mine_matches_serial_miner(self, table2_small):
        from repro.mining.apriori import apriori

        transactions = TransactionSet.from_flows(table2_small.flows)
        reference = apriori(transactions, table2_small.min_support)
        with ParallelEngine(backend="thread", jobs=2) as engine:
            result = engine.mine(transactions, table2_small.min_support)
        assert result.all_frequent == reference.all_frequent

    def test_engine_accepts_son_as_local_miner(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        with ParallelEngine(backend="serial") as engine:
            # "son" falls back to apriori shard mining instead of
            # recursing.
            result = engine.mine(transactions, 2, local_miner="son")
        assert result.algorithm == "son"

    def test_engine_rejects_unknown_local_miner(self, tiny_flows):
        from repro.errors import MiningError

        transactions = TransactionSet.from_flows(tiny_flows)
        with ParallelEngine(backend="serial") as engine:
            with pytest.raises(MiningError, match="local miner"):
                engine.mine(transactions, 2, local_miner="eclatt")

    def test_serial_backend_partitions_by_jobs(self, tiny_flows):
        from repro.mining.apriori import apriori

        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        # jobs=4 on the serial backend must still shard 4 ways (the
        # executor reports jobs=1; the engine's width wins).
        with ParallelEngine(backend="serial", jobs=4) as engine:
            result = engine.mine(transactions, 2)
        assert result.all_frequent == reference.all_frequent

    def test_engine_repr_and_props(self):
        with ParallelEngine(backend="serial", jobs=3, partitions=5) as engine:
            assert engine.backend == "serial"
            assert engine.partitions == 5
            assert "ParallelEngine" in repr(engine)


class TestExtractorRouting:
    @pytest.fixture(scope="class")
    def serial_result(self, ddos_trace):
        return api.extract(
            ddos_trace.flows, _config(), interval_seconds=900.0, seed=1
        )

    def test_serial_config_has_no_engine(self):
        extractor = AnomalyExtractor(_config())
        assert extractor.engine is None
        extractor.close()  # no-op

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_parallel_extraction_identical(
        self, ddos_trace, serial_result, backend
    ):
        config = _config(jobs=2, backend=backend)
        with api.session(
            config, mode="batch", interval_seconds=900.0, seed=1
        ) as session:
            assert session.extractor.engine is not None
            result = run_session(session, [ddos_trace.flows])
        assert result.flagged_intervals == serial_result.flagged_intervals
        for ours, theirs in zip(
            result.extractions, serial_result.extractions
        ):
            assert ours.render() == theirs.render()
            assert ours.mining.all_frequent == theirs.mining.all_frequent

    def test_process_backend_extraction_identical(
        self, ddos_trace, serial_result
    ):
        config = _config(jobs=2, backend="process")
        result = api.extract(
            ddos_trace.flows, config, interval_seconds=900.0, seed=1,
        )
        assert result.flagged_intervals == serial_result.flagged_intervals
        for ours, theirs in zip(
            result.extractions, serial_result.extractions
        ):
            assert ours.render() == theirs.render()

    def test_partitions_knob_respected(self, ddos_trace, serial_result):
        config = _config(jobs=2, backend="serial", partitions=7)
        result = api.extract(
            ddos_trace.flows, config, interval_seconds=900.0, seed=1,
        )
        assert [e.render() for e in result.extractions] == [
            e.render() for e in serial_result.extractions
        ]
