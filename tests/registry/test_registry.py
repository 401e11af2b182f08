"""The built-in name tables, their refusals, and the report sinks."""

from types import MappingProxyType

import pytest

import repro.api as api
from repro.core import ExtractionConfig
from repro.detection.features import (
    DETECTOR_FEATURES,
    MINING_FEATURES,
    feature_sets,
)
from repro.errors import ConfigError, RegistryError, TraceFormatError
from repro.fleet import resolve_route
from repro.fleet.routing import routers
from repro.flows import read_trace, write_csv, write_npz
from repro.flows.io import readers
from repro.mining import apriori, eclat, fpgrowth, miners, son
from repro.registry import lookup


def _read_pcap(tmp_path):
    path = tmp_path / "t.pcap"
    path.write_text("x")
    return read_trace(str(path))


# (entry point, error type, fragments the refusal must carry)
REFUSALS = {
    "miner": (
        lambda tmp_path: ExtractionConfig(miner="aprioro"),
        RegistryError,
        ("unknown miner 'aprioro'", "did you mean 'apriori'",
         "available: apriori, eclat, fpgrowth, son"),
    ),
    "feature set": (
        lambda tmp_path: ExtractionConfig(features="papr"),
        RegistryError,
        ("unknown feature set 'papr'", "did you mean 'paper'"),
    ),
    "trace reader": (
        _read_pcap,
        TraceFormatError,
        ("unknown trace format", ".csv", ".npz"),
    ),
    "fleet router": (
        lambda tmp_path: resolve_route("nope:dst_ip", 2),
        RegistryError,
        ("unknown fleet router 'nope'", "available: hash"),
    ),
}


@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_unknown_name_is_refused_with_the_choices(kind, tmp_path):
    entry, error, fragments = REFUSALS[kind]
    with pytest.raises(error) as excinfo:
        entry(tmp_path)
    for fragment in fragments:
        assert fragment in str(excinfo.value)


@pytest.mark.parametrize("name", [None, 5, ["apriori"]])
def test_non_string_miner_name_is_a_registry_error(name):
    for build in (
        lambda: api.resolve_config(None, miner=name),
        lambda: ExtractionConfig(miner=name),
    ):
        with pytest.raises(RegistryError) as excinfo:
            build()
        message = str(excinfo.value)
        assert "miner name must be a string" in message
        assert type(name).__name__ in message


def test_registry_error_is_config_error():
    with pytest.raises(ConfigError):
        ExtractionConfig(miner="nope")


def test_api_miners_are_the_mining_functions():
    assert api.miners == {
        "apriori": apriori, "eclat": eclat, "fpgrowth": fpgrowth, "son": son,
    }


class TestRegistry:
    """:func:`repro.registry.lookup` over any name table."""

    def test_register_and_get(self):
        sentinel = object()
        assert lookup("thing", {"a": sentinel}, "a") is sentinel

    def test_unknown_name_lists_choices(self):
        with pytest.raises(RegistryError) as excinfo:
            lookup("widget", {"alpha": 1, "beta": 2}, "gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "available: alpha, beta" in message

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(RegistryError, match="did you mean 'apriori'"):
            lookup("widget", {"apriori": 1}, "aprioro")

    def test_registry_error_is_config_error(self):
        with pytest.raises(ConfigError):
            lookup("thing", {}, "nope")

    def test_mapping_protocol(self):
        table = MappingProxyType({"b": 2, "a": 1})
        assert lookup("thing", table, "a") == 1
        with pytest.raises(RegistryError, match="available: a, b"):
            lookup("thing", table, "c")

    def test_get_with_default(self):
        # The benchmark workloads read miners with a plain ``.get``.
        assert api.miners.get("missing") is None
        assert api.miners.get("apriori") is api.miners["apriori"]

    def test_invalid_name_rejected(self):
        with pytest.raises(RegistryError, match="unknown thing ''"):
            lookup("thing", {"a": 1}, "")
        with pytest.raises(RegistryError, match="string, got NoneType"):
            lookup("thing", {"a": 1}, None)


class TestBuiltinRegistries:
    def test_miners_builtins(self):
        assert set(miners) == {"apriori", "fpgrowth", "eclat", "son"}

    def test_miners_reads_like_a_mapping(self):
        assert callable(miners["apriori"])
        assert "apriori" in miners
        assert sorted(miners)

    def test_feature_set_builtins(self):
        assert tuple(feature_sets["paper"]) == DETECTOR_FEATURES
        assert tuple(feature_sets["all"]) == MINING_FEATURES
        assert "endpoints" in feature_sets

    def test_reader_builtins(self):
        assert set(readers) == {".csv", ".npz"}

    def test_router_builtins(self):
        assert set(routers) == {"hash"}


@pytest.mark.parametrize("name", sorted(miners))
def test_builtin_miner_resolves(name):
    config = ExtractionConfig(miner=name)
    assert config.miner == name
    assert lookup("miner", miners, config.miner) is miners[name]


@pytest.mark.parametrize("name", sorted(feature_sets))
def test_builtin_feature_set_resolves(name):
    features = ExtractionConfig(features=name).features
    assert features == tuple(feature_sets[name])


@pytest.mark.parametrize("suffix", sorted(readers))
def test_builtin_reader_resolves(suffix, tmp_path, tiny_flows):
    path = str(tmp_path / f"t{suffix}")
    {".csv": write_csv, ".npz": write_npz}[suffix](tiny_flows, path)
    assert len(read_trace(path)) == len(tiny_flows)


@pytest.mark.parametrize("name", sorted(routers))
def test_builtin_router_resolves(name, tiny_flows):
    route = resolve_route(f"{name}:dst_ip", 2)
    expected = tiny_flows.column("dst_ip") % 2
    assert route(tiny_flows).tolist() == expected.tolist()


class TestReaderRegistry:
    def test_read_trace_dispatches_by_extension(self, tmp_path, ddos_trace):
        npz = tmp_path / "t.npz"
        csv = tmp_path / "t.csv"
        write_npz(ddos_trace.flows, str(npz))
        write_csv(ddos_trace.flows, str(csv))
        assert len(read_trace(str(npz))) == len(ddos_trace.flows)
        assert len(read_trace(str(csv))) == len(ddos_trace.flows)

    def test_unknown_extension_lists_known(self, tmp_path):
        with pytest.raises(TraceFormatError) as excinfo:
            _read_pcap(tmp_path)
        message = str(excinfo.value)
        assert "unknown trace format" in message
        assert ".csv" in message and ".npz" in message


class TestSinks:
    def test_memory_sink_collects_and_notes(self):
        from repro.core.pipeline import notify_sink_interval
        from repro.sinks import MemorySink

        sink = MemorySink()
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
        from repro.sinks import MemorySink

        assert isinstance(MemorySink(), ReportSink)
        assert isinstance(MemorySink(), IntervalSink)
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
