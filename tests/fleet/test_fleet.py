"""The fleet contract: N pipelines, one engine, deterministic results.

Holds the ISSUE 5 acceptance criteria for `repro.fleet`: routed
per-pipeline results are byte-identical to solo runs over the same
subset, pipeline count does not change a pipeline's incidents,
`fleet.incidents()` is a deterministically ranked merge across the
per-pipeline stores, and `close()` releases every store and the shared
pool even when one release fails.
"""

import json

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig, FleetSettings
from repro.detection.detector import DetectorConfig
from repro.errors import ConfigError, ExtractionError, RegistryError
from repro.fleet import FleetManager, resolve_route

INTERVAL_SECONDS = 900.0


def _config(**overrides):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
        **overrides,
    )


def _chunked(table, rows=700):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


def _rendered(extractions):
    return "\n\n".join(e.render() for e in extractions)


def _feed_all(fleet, flows, rows=700):
    for chunk in _chunked(flows, rows):
        fleet.feed(chunk)
    return fleet.finish()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_column_shorthand_is_hash_shard(self, tiny_flows):
        router = resolve_route("dst_ip", 3)
        assert np.array_equal(
            router(tiny_flows), tiny_flows.dst_ip % 3
        )

    def test_percent_spec_pins_pipeline_count(self, tiny_flows):
        router = resolve_route("dst_ip%4", 4)
        assert np.array_equal(router(tiny_flows), tiny_flows.dst_ip % 4)
        with pytest.raises(ConfigError, match="2 pipelines"):
            resolve_route("dst_ip%2", 4)

    def test_name_arg_spec(self, tiny_flows):
        router = resolve_route("hash:src_port", 2)
        assert np.array_equal(router(tiny_flows), tiny_flows.src_port % 2)

    def test_unknown_column_and_router_rejected(self):
        with pytest.raises(ConfigError, match="unknown routing column"):
            resolve_route("hash:dst_ipp", 2)
        with pytest.raises(ConfigError, match="unknown route"):
            resolve_route("no-such-router", 2)
        with pytest.raises(RegistryError, match="unknown fleet router"):
            resolve_route("nope:dst_ip", 2)
        with pytest.raises(ConfigError, match="bad shard count"):
            resolve_route("dst_ip%many", 2)

    def test_callable_spec_used_directly(self, tiny_flows):
        router = resolve_route(lambda table: table.protocol % 2, 2)
        assert np.array_equal(router(tiny_flows), tiny_flows.protocol % 2)



# ----------------------------------------------------------------------
# Determinism / solo equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet2(ddos_trace):
    cfg = _config()
    with FleetManager(
        {"even": cfg, "odd": cfg},
        route="dst_ip%2",
        interval_seconds=INTERVAL_SECONDS,
        seed=1,
    ) as fleet:
        results = _feed_all(fleet, ddos_trace.flows)
        incidents = {
            name: [
                entry.incident.to_dict()
                for entry in fleet.incidents()
                if entry.pipeline == name
            ]
            for name in fleet.names
        }
        merged = [entry.to_dict() for entry in fleet.incidents()]
    return results, incidents, merged


class TestFleetDeterminism:
    def test_pipeline_equals_solo_run_on_subset(self, ddos_trace, fleet2):
        results, incidents, _ = fleet2
        caught = 0
        for k, name in enumerate(("even", "odd")):
            subset = ddos_trace.flows.select(
                ddos_trace.flows.dst_ip % 2 == k
            )
            store = api.open_store(":memory:")
            expected = api.stream(
                _chunked(subset), _config(), interval_seconds=INTERVAL_SECONDS,
                sink=store, seed=1,
            )
            assert _rendered(results[name].extractions) == _rendered(
                expected.extractions
            )
            solo_incidents = [
                r.incident.to_dict() for r in store.incidents()
            ]
            assert incidents[name] == solo_incidents
            caught += len(expected.extractions)
            store.close()
        assert caught  # the DDoS surfaced on at least one link

    def test_pipeline_count_does_not_change_results(
        self, ddos_trace, fleet2
    ):
        """Same routing -> same per-pipeline incidents, whether the
        fleet has 2 pipelines or 4 (two of them idle)."""
        results2, incidents2, _ = fleet2
        cfg = _config()

        def route_first_two(table):
            return (table.dst_ip % 2).astype(np.int64)

        with FleetManager(
            {"even": cfg, "odd": cfg, "spare-a": cfg, "spare-b": cfg},
            route=route_first_two,
            interval_seconds=INTERVAL_SECONDS,
            seed=1,
        ) as fleet4:
            results4 = _feed_all(fleet4, ddos_trace.flows)
            incidents4 = {
                name: [
                    e.incident.to_dict()
                    for e in fleet4.incidents()
                    if e.pipeline == name
                ]
                for name in fleet4.names
            }
        for name in ("even", "odd"):
            assert _rendered(results4[name].extractions) == _rendered(
                results2[name].extractions
            )
            assert incidents4[name] == incidents2[name]
        for name in ("spare-a", "spare-b"):
            assert results4[name].extraction_count == 0
            assert incidents4[name] == []

    def test_merged_ranking_is_deterministic(self, ddos_trace, fleet2):
        _, _, merged = fleet2
        assert merged  # something was ranked
        scores = [entry["score"] for entry in merged]
        assert scores == sorted(scores, reverse=True)
        assert all("pipeline" in entry for entry in merged)
        # Re-running the whole fleet reproduces the merge byte-for-byte.
        cfg = _config()
        with FleetManager(
            {"even": cfg, "odd": cfg},
            route="dst_ip%2",
            interval_seconds=INTERVAL_SECONDS,
            seed=1,
        ) as again:
            _feed_all(again, ddos_trace.flows)
            rerun = [entry.to_dict() for entry in again.incidents()]
        assert json.dumps(rerun, sort_keys=True) == json.dumps(
            merged, sort_keys=True
        )


# ----------------------------------------------------------------------
# Feeding modes and errors
# ----------------------------------------------------------------------
class TestFeeding:
    def test_explicit_pipeline_tag(self, tiny_flows):
        cfg = _config()
        with FleetManager(
            {"a": cfg, "b": cfg}, interval_seconds=INTERVAL_SECONDS
        ) as fleet:
            out = fleet.feed(tiny_flows, pipeline="a")
            assert set(out) == {"a"}
            with pytest.raises(ConfigError, match="unknown pipeline"):
                fleet.feed(tiny_flows, pipeline="c")
            with pytest.raises(ConfigError, match="no route"):
                fleet.feed(tiny_flows)

    def test_router_output_validated(self, tiny_flows):
        cfg = _config()
        with FleetManager(
            {"a": cfg, "b": cfg},
            route=lambda table: np.full(len(table), 7),
            interval_seconds=INTERVAL_SECONDS,
        ) as fleet:
            with pytest.raises(ConfigError, match="outside"):
                fleet.feed(tiny_flows)
        with FleetManager(
            {"a": cfg, "b": cfg},
            route=lambda table: np.zeros(3),
            interval_seconds=INTERVAL_SECONDS,
        ) as fleet:
            with pytest.raises(ConfigError, match="indices"):
                fleet.feed(tiny_flows)

    def test_feed_after_close_rejected(self, tiny_flows):
        fleet = FleetManager(
            {"a": _config()}, route="dst_ip",
            interval_seconds=INTERVAL_SECONDS,
        )
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(ExtractionError, match="closed"):
            fleet.feed(tiny_flows, pipeline="a")

    def test_needs_at_least_one_pipeline(self):
        with pytest.raises(ConfigError, match="at least one"):
            FleetManager({})

    def test_shared_explicit_store_path_rejected(self, tmp_path):
        """Two pipelines writing one store would interleave reports and
        fabricate cross-link incidents; refuse up front."""
        cfg = _config(store_path=str(tmp_path / "shared.db"))
        with pytest.raises(ConfigError, match="share store"):
            FleetManager(
                {"a": cfg, "b": cfg}, route="dst_ip%2",
                interval_seconds=INTERVAL_SECONDS,
            )
        # A distinct explicit store per pipeline is fine.
        with FleetManager(
            {
                "a": _config(store_path=str(tmp_path / "a.db")),
                "b": _config(store_path=str(tmp_path / "b.db")),
            },
            route="dst_ip%2",
            interval_seconds=INTERVAL_SECONDS,
        ) as fleet:
            assert fleet.names == ("a", "b")


# ----------------------------------------------------------------------
# Lifecycle (ISSUE 5 satellite: no leaks)
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_releases_everything_despite_failures(self, tmp_path):
        cfg = _config()
        fleet = FleetManager(
            {"a": cfg, "b": cfg}, route="dst_ip",
            interval_seconds=INTERVAL_SECONDS,
            store_dir=str(tmp_path / "stores"),
        )
        stores = [fleet.extractor(n).store for n in fleet.names]
        # Poison the FIRST session's close: the second store must still
        # be released, and the failure must surface.
        first = fleet.session("a")
        original_close = first.close

        def boom():
            original_close()
            raise RuntimeError("store close failed")

        first.close = boom
        with pytest.raises(RuntimeError, match="store close failed"):
            fleet.close()
        assert all(store._conn is None for store in stores)

    def test_mid_feed_raise_releases_fleet(self, tmp_path):
        from repro.flows.table import FlowTable

        cfg = _config()
        poisoned = FlowTable.from_arrays(
            [1], [2], [3], [4], [6], [1], [40], start=[1e12]
        )
        with pytest.raises(ConfigError):
            with FleetManager(
                {"a": cfg, "b": cfg}, route="dst_ip%2",
                interval_seconds=INTERVAL_SECONDS,
                store_dir=str(tmp_path / "stores"),
            ) as fleet:
                fleet.feed(poisoned)
        for name in fleet.names:
            assert fleet.extractor(name).store._conn is None

    def test_store_dir_gets_one_db_per_pipeline(self, tmp_path, tiny_flows):
        store_dir = tmp_path / "stores"
        with FleetManager(
            {"a": _config(), "b": _config()}, route="dst_ip%2",
            interval_seconds=INTERVAL_SECONDS, store_dir=str(store_dir),
        ) as fleet:
            fleet.feed(tiny_flows)
            fleet.finish()
        assert sorted(p.name for p in store_dir.iterdir()) == [
            "a.db", "b.db",
        ]


# ----------------------------------------------------------------------
# FleetSettings + api.open_fleet
# ----------------------------------------------------------------------
_FLEET_TOML = """
[detector]
bins = 256
training_intervals = 16

[mining]
min_support = 300

[fleet]
route = "dst_ip%2"

[fleet.pipelines.upstream]

[fleet.pipelines.peering.mining]
min_support = 150
"""


class TestFleetSettings:
    def test_from_toml_layers_pipeline_overrides(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(_FLEET_TOML)
        settings, base = FleetSettings.from_toml(path)
        assert settings.route == "dst_ip%2"
        configs = settings.pipeline_configs()
        assert list(configs) == ["upstream", "peering"]
        assert configs["upstream"] == base
        assert configs["peering"].min_support == 150
        assert configs["peering"].detector.bins == 256  # base kept

    def test_unknown_fleet_key_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[fleet]\nroute = 'dst_ip'\nstore_dri = 'x'\n")
        with pytest.raises(ConfigError, match="store_dir"):
            FleetSettings.from_toml(path)

    def test_unknown_pipeline_key_rejected(self, tmp_path):
        path = tmp_path / "bad2.toml"
        path.write_text(
            "[fleet.pipelines.a.mining]\nmin_suport = 5\n"
        )
        with pytest.raises(
            ConfigError, match=r"\[fleet.pipelines.a\].*min_support"
        ):
            FleetSettings.from_toml(path)

    def test_plain_config_rejects_fleet_section_with_hint(self):
        with pytest.raises(ConfigError, match="open_fleet"):
            ExtractionConfig.from_dict({"fleet": {"route": "dst_ip"}})

    def test_duplicate_and_bad_names_rejected(self):
        base = _config()
        with pytest.raises(ConfigError, match="non-empty"):
            FleetSettings(pipelines=(("", base),))


class TestOpenFleet:
    def test_from_toml_end_to_end(self, tmp_path, ddos_trace):
        path = tmp_path / "fleet.toml"
        path.write_text(_FLEET_TOML)
        with api.open_fleet(path, interval_seconds=INTERVAL_SECONDS,
                            seed=1) as fleet:
            assert fleet.names == ("upstream", "peering")
            results = _feed_all(fleet, ddos_trace.flows)
            assert sum(r.flows for r in results.values()) == len(
                ddos_trace.flows
            )
            assert fleet.incidents()  # merged view reachable

    def test_generated_and_named_pipelines(self):
        with api.open_fleet(
            _config(), pipelines=3, route="dst_ip%3"
        ) as fleet:
            assert fleet.names == ("link0", "link1", "link2")
        with api.open_fleet(
            _config(), pipelines=["east", "west"], route="dst_ip%2"
        ) as fleet:
            assert fleet.names == ("east", "west")

    def test_mapping_pipelines_with_overrides(self):
        with api.open_fleet(
            _config(),
            pipelines={
                "hot": {"mining": {"min_support": 100}},
                "cold": None,
            },
            route="dst_ip%2",
        ) as fleet:
            hot = fleet.extractor("hot").config
            cold = fleet.extractor("cold").config
            assert hot.min_support == 100
            assert cold.min_support == 300

    def test_no_pipelines_anywhere_is_an_error(self):
        with pytest.raises(ConfigError, match="no pipelines"):
            api.open_fleet(_config())

    def test_duplicate_sequence_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate.*upstream"):
            api.open_fleet(
                _config(), pipelines=["upstream", "upstream"],
                route="dst_ip%2",
            )

    def test_overrides_reach_every_generated_pipeline(self):
        with api.open_fleet(
            _config(), pipelines=2, route="dst_ip%2", min_support=123,
        ) as fleet:
            assert all(
                fleet.extractor(n).config.min_support == 123
                for n in fleet.names
            )
