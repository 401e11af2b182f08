"""Unit tests for the generic extension registry and its instances."""

import importlib.metadata

import pytest

from repro.errors import ConfigError, RegistryError
from repro.registry import Registry, feature_sets, miners, readers, sinks


def toy_miner(transactions, min_support, maximal_only=True, **kwargs):
    """A 'third-party' miner: delegates to apriori (same output)."""
    from repro.mining import apriori

    return apriori(transactions, min_support, maximal_only=maximal_only)


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg["a"] == 1

    def test_decorator_registration(self):
        reg = Registry("thing")

        @reg.register("fn")
        def fn():
            return 42

        assert reg["fn"] is fn
        assert fn() == 42  # decorator returns the function unchanged

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", 2)
        assert reg["a"] == 1

    def test_duplicate_with_replace_allowed(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.register("a", 2, replace=True)
        assert reg["a"] == 2

    def test_setitem_overwrites_like_a_dict(self):
        reg = Registry("thing")
        reg["a"] = 1
        reg["a"] = 2
        assert reg["a"] == 2

    def test_unknown_name_lists_choices(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(RegistryError) as excinfo:
            reg.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_name_did_you_mean(self):
        reg = Registry("widget")
        reg.register("apriori", 1)
        with pytest.raises(RegistryError, match="did you mean 'apriori'"):
            reg.get("aprioro")

    def test_registry_error_is_config_error(self):
        reg = Registry("thing")
        with pytest.raises(ConfigError):
            reg.get("nope")

    def test_mapping_protocol(self):
        reg = Registry("thing")
        reg.register("b", 2)
        reg.register("a", 1)
        assert "a" in reg
        assert "c" not in reg
        assert 7 not in reg  # non-string keys never match
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2
        assert dict(reg) == {"a": 1, "b": 2}

    def test_get_with_default(self):
        reg = Registry("thing")
        assert reg.get("missing", None) is None

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("a")

    def test_invalid_name_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.register("", 1)
        with pytest.raises(RegistryError):
            reg.register(None, 1)


class _FakeEntryPoint:
    def __init__(self, name, obj=None, error=None):
        self.name = name
        self.value = f"fake.module:{name}"
        self._obj = obj
        self._error = error

    def load(self):
        if self._error is not None:
            raise self._error
        return self._obj


class TestEntryPointDiscovery:
    def _patched(self, monkeypatch, group, entry_points):
        def fake_entry_points(*, group: str):
            return entry_points if group == "plugins.test" else []

        monkeypatch.setattr(
            importlib.metadata, "entry_points", fake_entry_points
        )

    def test_entry_point_resolves_and_caches(self, monkeypatch):
        sentinel = object()
        self._patched(
            monkeypatch, "plugins.test",
            [_FakeEntryPoint("ep", obj=sentinel)],
        )
        reg = Registry("thing", entry_point_group="plugins.test")
        assert "ep" in reg.names()
        assert reg["ep"] is sentinel
        # Cached: a second lookup works even after the scan is gone.
        monkeypatch.setattr(
            importlib.metadata, "entry_points", lambda *, group: []
        )
        assert reg["ep"] is sentinel

    def test_entry_point_names_listed_in_errors(self, monkeypatch):
        self._patched(
            monkeypatch, "plugins.test",
            [_FakeEntryPoint("ep", obj=1)],
        )
        reg = Registry("thing", entry_point_group="plugins.test")
        with pytest.raises(RegistryError, match="ep"):
            reg.get("unknown")

    def test_broken_entry_point_surfaces_as_registry_error(
        self, monkeypatch
    ):
        self._patched(
            monkeypatch, "plugins.test",
            [_FakeEntryPoint("broken", error=ImportError("no module"))],
        )
        reg = Registry("thing", entry_point_group="plugins.test")
        with pytest.raises(RegistryError, match="failed to load"):
            reg.get("broken")

    def test_refresh_rescans(self, monkeypatch):
        reg = Registry("thing", entry_point_group="plugins.test")
        assert reg.names() == []
        self._patched(
            monkeypatch, "plugins.test",
            [_FakeEntryPoint("late", obj=3)],
        )
        assert reg.names() == []  # scan is cached...
        reg.refresh()
        assert reg.names() == ["late"]  # ...until refreshed


class TestBuiltinRegistries:
    def test_miners_builtins(self):
        assert {"apriori", "fpgrowth", "eclat", "son"} <= set(miners)

    def test_miners_reads_like_a_mapping(self):
        assert callable(miners["apriori"])
        assert "apriori" in miners
        assert sorted(miners)

    def test_feature_set_builtins(self):
        from repro.detection.features import (
            DETECTOR_FEATURES,
            MINING_FEATURES,
        )

        assert tuple(feature_sets["paper"]) == DETECTOR_FEATURES
        assert tuple(feature_sets["all"]) == MINING_FEATURES
        assert "endpoints" in feature_sets

    def test_reader_builtins(self):
        assert {".csv", ".npz"} <= set(readers)

    def test_sink_builtins(self):
        assert {"null", "memory", "jsonl", "tee", "store"} <= set(sinks)


class TestThirdPartyMiner:
    def test_runtime_registered_miner_mines(self, table2_small):
        from repro.mining import TransactionSet, apriori

        miners.register("toy-reg-test", toy_miner)
        try:
            transactions = TransactionSet.from_flows(table2_small.flows)
            expected = apriori(transactions, table2_small.min_support)
            got = miners["toy-reg-test"](
                transactions, table2_small.min_support
            )
            assert got.itemsets == expected.itemsets
        finally:
            miners.unregister("toy-reg-test")

    def test_custom_miner_valid_in_config(self):
        from repro.core import ExtractionConfig

        miners.register("toy-cfg-test", toy_miner)
        try:
            config = ExtractionConfig(miner="toy-cfg-test")
            assert config.miner == "toy-cfg-test"
        finally:
            miners.unregister("toy-cfg-test")


class TestReaderRegistry:
    def test_read_trace_dispatches_by_extension(self, tmp_path, ddos_trace):
        from repro.flows import read_trace, write_csv, write_npz

        npz = tmp_path / "t.npz"
        csv = tmp_path / "t.csv"
        write_npz(ddos_trace.flows, str(npz))
        write_csv(ddos_trace.flows, str(csv))
        assert len(read_trace(str(npz))) == len(ddos_trace.flows)
        assert len(read_trace(str(csv))) == len(ddos_trace.flows)

    def test_unknown_extension_lists_known(self, tmp_path):
        from repro.errors import TraceFormatError
        from repro.flows import read_trace

        path = tmp_path / "t.pcap"
        path.write_text("x")
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(str(path))
        message = str(excinfo.value)
        assert "unknown trace format" in message
        assert ".csv" in message and ".npz" in message

    def test_custom_reader_plugs_in(self, tmp_path, tiny_flows):
        from repro.flows import read_trace, write_csv

        csv_path = tmp_path / "t.weird"
        write_csv(tiny_flows, str(csv_path))

        from repro.flows.io import read_csv

        readers.register(".weird", read_csv)
        try:
            assert len(read_trace(str(csv_path))) == len(tiny_flows)
        finally:
            readers.unregister(".weird")


class TestSinks:
    def test_memory_sink_collects_and_notes(self):
        from repro.core.pipeline import notify_sink_interval

        sink = sinks["memory"]()
        assert len(sink) == 0
        notify_sink_interval(sink, 7)
        assert sink.last_interval == 7

    def test_plain_list_still_works_as_sink(self):
        from repro.core.pipeline import notify_sink_interval

        collector = []
        # Lists implement append but not note_interval: no error.
        notify_sink_interval(collector, 3)
        assert collector == []

    def test_interval_sink_protocol(self):
        from repro.core.pipeline import IntervalSink, ReportSink
        from repro.sinks import MemorySink, NullSink

        assert isinstance(MemorySink(), ReportSink)
        assert isinstance(MemorySink(), IntervalSink)
        assert isinstance(NullSink(), IntervalSink)
        assert not isinstance([], IntervalSink)

    def test_incident_store_satisfies_interval_sink(self, tmp_path):
        from repro.core.pipeline import IntervalSink
        from repro.incidents import IncidentStore

        with IncidentStore(str(tmp_path / "s.db")) as store:
            assert isinstance(store, IntervalSink)

    def test_tee_sink_fans_out(self):
        from repro.sinks import MemorySink, TeeSink

        a, b = MemorySink(), []
        tee = TeeSink(a, b)
        tee.note_interval(5)
        assert a.last_interval == 5

    def test_jsonl_sink_writes_documents(self, tmp_path, ddos_trace):
        import json

        import repro.api as api
        from repro.sinks import JsonlSink

        path = tmp_path / "reports.jsonl"
        with JsonlSink(str(path)) as sink:
            api.extract(
                ddos_trace.flows,
                detector={"bins": 256, "training_intervals": 16},
                min_support=300,
                seed=1,
                sink=sink,
            )
        lines = path.read_text().strip().splitlines()
        assert lines
        assert all(json.loads(line)["interval"] >= 0 for line in lines)
