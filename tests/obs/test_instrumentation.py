"""Instrument wiring across the library layers.

Each layer records into a real :class:`MetricsRegistry` here; the
equivalence suite (`test_equivalence_metrics.py`) separately proves the
same code paths are byte-identical with the registry disabled.
"""

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.flows.table import FlowTable
from repro.obs.instruments import PipelineInstruments
from repro.obs.metrics import MetricsRegistry
from repro.streaming.assembler import IntervalAssembler


def _flows(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        src_ip=np.arange(n) + 10,
        dst_ip=np.full(n, 20),
        src_port=np.arange(n) + 1024,
        dst_port=np.full(n, 80),
        protocol=[6] * n,
        packets=[1] * n,
        bytes_=[40] * n,
        start=np.asarray(starts, dtype=np.float64),
    )


def _config(**overrides):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
        **overrides,
    )


def _value(registry, name, *labels):
    for family in registry.families():
        if family.name == name:
            return family.labels(*labels).value
    raise AssertionError(f"metric {name} not registered")


class TestAssemblerInstrumentation:
    @pytest.fixture
    def registry(self):
        return MetricsRegistry()

    @pytest.fixture
    def instruments(self, registry):
        return PipelineInstruments(registry, "linkA")

    def test_late_drop_split_pre_origin_vs_closed(
        self, registry, instruments
    ):
        asm = IntervalAssembler(
            interval_seconds=10.0, origin=100.0, instruments=instruments
        )
        # Advance the watermark past interval 0, then send one
        # pre-origin flow and one flow for the already-closed interval.
        asm.push(_flows([101.0, 125.0]))
        asm.push(_flows([50.0]))   # before origin
        asm.push(_flows([102.0]))  # interval 0 already emitted
        assert asm.late_dropped_pre_origin == 1
        assert asm.late_dropped_closed == 1
        assert asm.late_dropped == 2  # back-compat sum
        late = "repro_assembler_late_dropped_total"
        assert _value(registry, late, "linkA", "pre_origin") == 1
        assert _value(registry, late, "linkA", "closed_interval") == 1

    def test_accepted_counter_and_pending_gauges(
        self, registry, instruments
    ):
        asm = IntervalAssembler(
            interval_seconds=10.0, instruments=instruments
        )
        asm.push(_flows([0.0, 5.0, 12.0]))
        accepted = "repro_assembler_flows_accepted_total"
        assert _value(registry, accepted, "linkA") == 3
        pending = "repro_assembler_pending_intervals"
        assert _value(registry, pending, "linkA") == asm.pending_intervals
        flows = "repro_assembler_pending_flows"
        assert _value(registry, flows, "linkA") == asm.pending_flows

    def test_backpressure_counter(self, registry, instruments):
        asm = IntervalAssembler(
            interval_seconds=10.0,
            max_delay_seconds=100.0,  # keep everything open...
            max_pending_intervals=1,  # ...but cap the buffer at one
            instruments=instruments,
        )
        asm.push(_flows([0.0, 12.0, 22.0]))
        assert asm.backpressure_emits > 0
        name = "repro_assembler_backpressure_emits_total"
        assert _value(registry, name, "linkA") == asm.backpressure_emits

    def test_watermark_lag_gauge(self, registry, instruments):
        asm = IntervalAssembler(
            interval_seconds=10.0,
            max_delay_seconds=5.0,
            instruments=instruments,
        )
        asm.push(_flows([0.0, 13.0]))
        # Watermark at 13, nothing emitted yet (0 closes at 15): the
        # assembler is holding 13 seconds of event time.
        lag = "repro_assembler_watermark_lag_seconds"
        assert _value(registry, lag, "linkA") == pytest.approx(13.0)


class TestIoInstrumentation:
    def test_rows_parsed_counted(self, tmp_path):
        from repro.flows.io import iter_csv, write_csv
        from repro.traffic import TraceGenerator, small_test

        trace = TraceGenerator(small_test(200), seed=1).generate(2)
        path = tmp_path / "trace.csv"
        write_csv(trace.flows, str(path))
        registry = MetricsRegistry()
        total = sum(
            len(chunk)
            for chunk in iter_csv(path, chunk_rows=64, metrics=registry)
        )
        assert _value(registry, "repro_io_rows_parsed_total") == total
        assert _value(registry, "repro_io_parse_errors_total") == 0

    def test_parse_errors_counted(self, tmp_path):
        from repro.errors import TraceFormatError
        from repro.flows.io import iter_csv, write_csv
        from repro.traffic import TraceGenerator, small_test

        trace = TraceGenerator(small_test(50), seed=1).generate(1)
        path = tmp_path / "bad.csv"
        write_csv(trace.flows, str(path))
        with open(path, "a") as handle:
            handle.write("1,2,3\n")  # ragged row
        registry = MetricsRegistry()
        with pytest.raises(TraceFormatError):
            list(iter_csv(path, chunk_rows=8, metrics=registry))
        assert _value(registry, "repro_io_parse_errors_total") == 1


class TestPipelineInstrumentation:
    @pytest.fixture(scope="class")
    def run(self, ddos_trace):
        registry = MetricsRegistry()
        result = api.extract(
            ddos_trace.flows, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
            metrics=registry,
        )
        return registry, result

    def test_interval_and_flow_counters_match_result(
        self, run, ddos_trace
    ):
        registry, result = run
        name = "repro_intervals_processed_total"
        assert (
            _value(registry, name, "default")
            == result.detection.n_intervals
        )
        flows = "repro_flows_processed_total"
        assert _value(registry, flows, "default") == len(ddos_trace.flows)

    def test_alarm_and_extraction_counters(self, run):
        registry, result = run
        alarmed = "repro_intervals_alarmed_total"
        assert _value(registry, alarmed, "default") == len(
            result.flagged_intervals
        )
        extractions = "repro_extractions_total"
        assert _value(registry, extractions, "default") == len(
            result.extractions
        )
        itemsets = "repro_itemsets_extracted_total"
        assert _value(registry, itemsets, "default") == sum(
            len(e.itemsets) for e in result.extractions
        )

    def test_stage_timings_recorded(self, run):
        registry, result = run
        for family in registry.families():
            if family.name == "repro_stage_seconds":
                by_stage = {
                    values[1]: child.count
                    for values, child in family.samples()
                }
                break
        else:
            raise AssertionError("repro_stage_seconds not registered")
        assert by_stage["detection"] == result.detection.n_intervals
        assert by_stage["mining"] == len(result.extractions)

    def test_extractor_owns_registry_from_config(self):
        with AnomalyExtractor(
            _config(obs={"enabled": True}), seed=1
        ) as extractor:
            assert extractor.metrics.enabled
        with AnomalyExtractor(_config(), seed=1) as extractor:
            assert not extractor.metrics.enabled


class TestStoreInstrumentation:
    def test_appends_refusals_and_query_latency(self, tmp_path, ddos_trace):
        from repro.incidents.store import IncidentStore

        registry = MetricsRegistry()
        config = _config(store_path=str(tmp_path / "inc.db"))
        with api.session(
            config, seed=1, metrics=registry,
            interval_seconds=ddos_trace.interval_seconds,
        ) as session:
            result = run_session(session, [ddos_trace.flows])
            session.store.incidents()
        assert len(result.extractions) > 0
        appends = "repro_store_appends_total"
        assert _value(registry, appends) == len(result.extractions)
        refusals = "repro_store_reingest_refusals_total"
        assert _value(registry, refusals) == 0
        for family in registry.families():
            if family.name == "repro_store_query_seconds":
                assert family.labels().count >= 1
                break
        else:
            raise AssertionError("repro_store_query_seconds not registered")
        # Re-running the same trace into the same store is refused and
        # counted.
        with IncidentStore(
            config.store_path, metrics=registry
        ) as store:
            with pytest.raises(Exception):
                api.extract(
                    ddos_trace.flows, _config(),
                    interval_seconds=ddos_trace.interval_seconds,
                    seed=1, sink=store,
                )
        assert _value(registry, refusals) == 1
