"""``POST /digest`` and the federation side of checkpoints/resume.

A federated daemon is a normal daemon plus a federator: digests enter
over HTTP, advance the ingest sequence like batches, ride along in the
durable checkpoints, and restore byte-for-byte on resume.  A daemon
*without* a federator must refuse digests - and must refuse to resume
a checkpoint that carries federation state it would silently drop.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ServiceSettings
from repro.errors import CheckpointError, ConfigError
from repro.federation import Collector, Federator
from repro.fleet.manager import FleetManager
from repro.incidents.store import open_store
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.checkpoint import read_checkpoint
from repro.service.protocol import HttpRequest
from repro.service.supervisor import resume_sequence
from repro.state import pack_array, unpack_array

SITES = ("east", "west")
INTERVAL_SECONDS = 10.0


def req(
    method: str,
    path: str,
    query: dict[str, str] | None = None,
    body: bytes = b"",
) -> HttpRequest:
    return HttpRequest(
        method=method,
        target=path,
        path=path,
        query=query or {},
        headers={},
        body=body,
    )


def body_of(response) -> dict:
    return json.loads(response[1])


@pytest.fixture(scope="module")
def site_wire(service_config, service_chunks):
    """Each site's digest stream for the service workload, as the wire
    lines a live collector would POST."""
    wires = {}
    for site in SITES:
        collector = Collector(
            site=site,
            config=service_config.detector,
            features=service_config.features,
            seed=0,
        )
        wires[site] = [
            collector.summarize(chunk, i).to_json()
            for i, chunk in enumerate(service_chunks)
        ]
    return wires


def make_federator(service_config, **kwargs) -> Federator:
    defaults = dict(
        sites=SITES,
        config=service_config.detector,
        features=service_config.features,
        seed=0,
        interval_seconds=INTERVAL_SECONDS,
        min_support=40,
    )
    defaults.update(kwargs)
    return Federator(**defaults)


def make_fleet(service_config, store_dir=None) -> FleetManager:
    return FleetManager(
        {"linkA": service_config},
        route="dst_ip",
        interval_seconds=INTERVAL_SECONDS,
        store_dir=store_dir,
        metrics=MetricsRegistry(),
    )


@pytest.fixture()
def fed_app(service_config):
    fleet = make_fleet(service_config)
    app = ServiceApp(
        fleet, federator=make_federator(service_config)
    )
    yield app
    fleet.close()


class TestDigestRoute:
    def test_single_digest_accepted(self, fed_app, site_wire):
        doc = body_of(fed_app.handle(req(
            "POST", "/digest", body=site_wire["east"][0].encode()
        )))
        assert doc["digests"] == 1
        assert doc["released"] == []
        assert doc["next_interval"] == 0
        assert doc["sequence"] == 1

    def test_complete_interval_released(self, fed_app, site_wire):
        fed_app.handle(req(
            "POST", "/digest", body=site_wire["east"][0].encode()
        ))
        doc = body_of(fed_app.handle(req(
            "POST", "/digest", body=site_wire["west"][0].encode()
        )))
        assert doc["released"] == [{
            "interval": 0,
            "sites": ["east", "west"],
            "stragglers": [],
            "alarm": False,
        }]
        assert doc["next_interval"] == 1
        assert doc["sequence"] == 2

    def test_multi_line_body(self, fed_app, site_wire):
        body = "\n".join(
            site_wire[site][i] for i in range(3) for site in SITES
        ).encode()
        doc = body_of(fed_app.handle(req("POST", "/digest", body=body)))
        assert doc["digests"] == 6
        assert [r["interval"] for r in doc["released"]] == [0, 1, 2]
        assert doc["next_interval"] == 3

    def test_detector_reports_do_not_accumulate(
        self, fed_app, service_config, service_chunks
    ):
        """A daemon federating for months stays flat: the interval
        step drops each release's detector report (the federator runs
        ``keep_reports=False``), while the checkpointed bank state is
        untouched by the dropping."""
        collectors = {
            site: Collector(
                site=site,
                config=service_config.detector,
                features=service_config.features,
                seed=0,
            )
            for site in SITES
        }
        bank = fed_app.federator._bank
        for i in range(50):
            chunk = service_chunks[i % len(service_chunks)]
            for site in SITES:
                wire = collectors[site].summarize(chunk, i).to_json()
                status, body, _ = fed_app.handle(req(
                    "POST", "/digest", body=wire.encode()
                ))
                assert status == 200, body
            assert len(bank.reports) <= 1
        assert fed_app.federator.next_interval == 50
        assert fed_app.federator.to_state()["bank"] == bank.to_state()

    def test_requires_post(self, fed_app):
        status, body, _ = fed_app.handle(req("GET", "/digest"))
        assert status == 405
        assert "use POST" in json.loads(body)["error"]

    def test_health_reports_federation_posture(self, fed_app, site_wire):
        fed_app.handle(req(
            "POST", "/digest", body=site_wire["east"][0].encode()
        ))
        doc = body_of(fed_app.handle(req("GET", "/healthz")))
        assert doc["federation"] == {
            "sites": ["east", "west"],
            "next_interval": 0,
            "pending_intervals": 1,
            "reports": 0,
        }


class TestDigestRefusals:
    def test_non_federator_daemon_refuses(self, service_config, site_wire):
        fleet = make_fleet(service_config)
        try:
            app = ServiceApp(fleet)
            status, body, _ = app.handle(req(
                "POST", "/digest", body=site_wire["east"][0].encode()
            ))
            assert status == 400
            assert "not a federator" in json.loads(body)["error"]
            doc = body_of(app.handle(req("GET", "/healthz")))
            assert "federation" not in doc
        finally:
            fleet.close()

    def test_empty_body_refused(self, fed_app):
        status, body, _ = fed_app.handle(req(
            "POST", "/digest", body=b"\n\n"
        ))
        assert status == 400
        assert "no digests" in json.loads(body)["error"]

    def test_malformed_line_names_its_position(self, fed_app, site_wire):
        body = (site_wire["east"][0] + "\n{nope\n").encode()
        status, payload, _ = fed_app.handle(req(
            "POST", "/digest", body=body
        ))
        assert status == 400
        error = json.loads(payload)["error"]
        assert error.startswith("digest:2:")
        # Refused before anything applied: the sequence never advanced.
        assert fed_app.sequence == 0

    def test_incompatible_schema_refused(self, fed_app, service_config):
        foreign = Collector(
            site="east",
            config=service_config.detector,
            features=service_config.features,
            seed=1,
        ).empty_digest(0)
        status, body, _ = fed_app.handle(req(
            "POST", "/digest", body=foreign.to_json().encode()
        ))
        assert status == 400
        assert "incompatible" in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "value, wording",
        [
            (np.nan, "do not fit int64"),
            (0.5, "do not fit int64"),
            (-1.0, "positive flow counts"),
        ],
        ids=["nan", "fraction", "negative"],
    )
    def test_bad_value_count_refused_before_anything_applies(
        self, fed_app, site_wire, value, wording
    ):
        """A digest whose value counts are not positive integers gets
        the typed 400 envelope naming the feature; the good line ahead
        of it in the same body is not applied either."""
        doc = json.loads(site_wire["west"][0])
        name = next(iter(doc["features"]))
        feature = doc["features"][name]
        counts = np.asarray(unpack_array(feature["counts"]), dtype=np.float64)
        counts[0] = value
        feature["counts"] = pack_array(counts)
        before = fed_app.federator.to_state()
        body = (site_wire["east"][0] + "\n" + json.dumps(doc)).encode()
        status, payload, _ = fed_app.handle(req(
            "POST", "/digest", body=body
        ))
        assert status == 400
        error = json.loads(payload)["error"]
        assert error.startswith("digest:2:")
        assert wording in error and name in error
        assert fed_app.sequence == 0
        assert fed_app.federator.to_state() == before

    @pytest.mark.parametrize(
        "find, put, names",
        [
            ('"interval":0', '"interval":1e999', "interval"),
            ('"interval":0', '"interval":0.5', "interval"),
            ('"interval":0', '"interval":true', "interval"),
            ('"flow_count":', '"flow_count":NaN,"was":', "flow_count"),
            ('"bins":', '"bins":0,"was":', "bins"),
        ],
        ids=["overflow", "fraction", "bool", "nan", "zero-bins"],
    )
    def test_coerced_field_is_a_typed_400_naming_it(
        self, fed_app, site_wire, find, put, names
    ):
        """What ``int(doc[...])`` used to let through - or die on:
        ``1e999`` raised ``OverflowError`` out of ``handle`` (dropped
        connection), ``0.5`` and ``true`` were read as interval 0/1."""
        line = site_wire["west"][0]
        assert find in line
        line = line.replace(find, put, 1)
        before = fed_app.federator.to_state()
        body = (site_wire["east"][0] + "\n" + line).encode()
        status, payload, _ = fed_app.handle(req(
            "POST", "/digest", body=body
        ))
        error = json.loads(payload)["error"]
        assert status == 400, error
        assert error.startswith("digest:2: malformed digest")
        assert names in error
        assert fed_app.sequence == 0
        assert fed_app.federator.to_state() == before

    def test_duplicate_digest_refused(self, fed_app, site_wire):
        wire = site_wire["east"][0].encode()
        assert fed_app.handle(req("POST", "/digest", body=wire))[0] == 200
        status, body, _ = fed_app.handle(req(
            "POST", "/digest", body=wire
        ))
        assert status == 400
        assert "duplicate" in json.loads(body)["error"]


class TestFederatedCheckpoint:
    def _settings(self, path: str) -> ServiceSettings:
        return dataclasses.replace(
            ServiceSettings.from_data(None), checkpoint_path=path
        )

    def test_checkpoint_carries_and_restores_federation_state(
        self, service_config, site_wire, tmp_path
    ):
        path = str(tmp_path / "ckpt.json")
        fleet = make_fleet(service_config, store_dir=tmp_path / "stores")
        store = open_store(str(tmp_path / "federation.db"))
        federator = make_federator(service_config, store=store)
        try:
            app = ServiceApp(
                fleet,
                checkpoint_path=path,
                checkpoint_every=1,
                federator=federator,
            )
            for i in range(4):
                for site in SITES:
                    status, body, _ = app.handle(req(
                        "POST", "/digest",
                        body=site_wire[site][i].encode(),
                    ))
                    assert status == 200, body
            # West's interval 4 stays pending across the checkpoint.
            app.handle(req(
                "POST", "/digest", body=site_wire["east"][4].encode()
            ))
            doc = read_checkpoint(path)
            assert doc["sequence"] == 9
            assert doc["federation"] == federator.to_state()
        finally:
            fleet.close()
            store.close()

        fresh = make_fleet(
            service_config, store_dir=tmp_path / "stores2"
        )
        resumed = make_federator(service_config)
        try:
            sequence = resume_sequence(
                fresh, self._settings(path), resume=True,
                federator=resumed,
            )
            assert sequence == 9
            assert json.dumps(
                resumed.to_state(), sort_keys=True
            ) == json.dumps(federator.to_state(), sort_keys=True)
            assert resumed.next_interval == 4
            assert resumed.pending_intervals == 1
        finally:
            fresh.close()

    @pytest.mark.parametrize("kill_after", [5, 14, 24, 31])
    @pytest.mark.parametrize("checkpoint_every", [1, 3, 5])
    def test_kill_anywhere_resume_is_byte_identical(
        self, service_config, site_wire, tmp_path,
        kill_after, checkpoint_every,
    ):
        """The service kill-anywhere property, extended to the
        federator: digests POSTed, checkpoints written every
        ``checkpoint_every`` bodies, the daemon killed after
        ``kill_after`` bodies with no final checkpoint - so the
        federation store can be *ahead* of the checkpoint, holding
        reports of alarmed intervals the restored federator will
        release again.  Resume + replay from ``checkpointed_sequence``
        must absorb those replays (no duplicate rows, no re-ingest
        refusal) and end byte-identical to the uninterrupted run."""
        bodies = [
            site_wire[site][i].encode()
            for i in range(len(site_wire["east"]))
            for site in SITES
        ]

        def post(app, some):
            for body in some:
                status, payload, _ = app.handle(
                    req("POST", "/digest", body=body)
                )
                assert status == 200, payload

        def snapshot(federator, store):
            return json.dumps({
                "rows": [r.to_json() for r in store.reports()],
                "marker": store.last_interval(),
                "reports": [r.to_json() for r in federator.reports],
                "ranking": [r.to_dict() for r in api.rank(store)],
                "state": federator.to_state(),
            }, sort_keys=True)

        fleet = make_fleet(service_config)
        try:
            with open_store(str(tmp_path / "baseline.db")) as store:
                federator = make_federator(service_config, store=store)
                post(ServiceApp(fleet, federator=federator), bodies)
                expected = snapshot(federator, store)
                assert federator.reports  # the attacks were extracted
        finally:
            fleet.close()

        ckpt = str(tmp_path / "ckpt.json")
        fed_db = str(tmp_path / "federation.db")
        first = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            with open_store(fed_db) as store:
                app = ServiceApp(
                    first,
                    checkpoint_path=ckpt,
                    checkpoint_every=checkpoint_every,
                    federator=make_federator(service_config, store=store),
                )
                post(app, bodies[:kill_after])
        finally:
            first.close()  # kill -9: no flush, no final checkpoint

        second = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            with open_store(fed_db) as store:
                resumed = make_federator(service_config, store=store)
                replay_from = resume_sequence(
                    second, self._settings(ckpt), resume=True,
                    federator=resumed,
                )
                assert replay_from == read_checkpoint(ckpt)["sequence"]
                assert replay_from <= kill_after
                post(
                    ServiceApp(
                        second, sequence=replay_from, federator=resumed
                    ),
                    bodies[replay_from:],
                )
                assert snapshot(resumed, store) == expected
        finally:
            second.close()

    def test_checkpointing_needs_a_durable_federation_store(
        self, service_config, tmp_path
    ):
        """The checkpoint carries no reports, so a federator whose
        store is in memory would lose them all at a crash."""
        fleet = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            with pytest.raises(
                ConfigError, match=r"\[federation\] store_path"
            ):
                ServiceApp(
                    fleet,
                    checkpoint_path=str(tmp_path / "ckpt.json"),
                    federator=make_federator(service_config),
                )
        finally:
            fleet.close()
        assert not (tmp_path / "ckpt.json").exists()

    def test_resumed_checkpoint_rewrites_the_same_bytes(
        self, service_config, service_chunks, site_wire, tmp_path
    ):
        """Checkpoint -> resume -> checkpoint is byte-stable for a
        mid-stream session (an interval pending in its assembler) and a
        federator holding a buffered digest: every packed array is
        rewritten with the dtype and the values it was read with."""
        path = tmp_path / "ckpt.json"
        fed_db = str(tmp_path / "federation.db")
        fleet = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            with open_store(fed_db) as store:
                app = ServiceApp(
                    fleet,
                    checkpoint_path=str(path),
                    checkpoint_every=1,
                    federator=make_federator(service_config, store=store),
                )
                for chunk in service_chunks[:6]:
                    fleet.feed(chunk)
                for i in range(5):
                    for site in SITES[: 1 if i == 4 else 2]:
                        status, body, _ = app.handle(req(
                            "POST", "/digest",
                            body=site_wire[site][i].encode(),
                        ))
                        assert status == 200, body
        finally:
            fleet.close()
        written = path.read_bytes()
        doc = json.loads(written)
        session = doc["fleet"]["pipelines"]["linkA"]["session"]
        assert session["assembler"]["pending"]
        assert session["detectors"]["detectors"]
        assert doc["federation"]["pending"]

        again = tmp_path / "again.json"
        fresh = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            with open_store(fed_db) as store:
                resumed = make_federator(service_config, store=store)
                sequence = resume_sequence(
                    fresh, self._settings(str(path)), resume=True,
                    federator=resumed,
                )
                ServiceApp(
                    fresh,
                    checkpoint_path=str(again),
                    sequence=sequence,
                    federator=resumed,
                ).checkpoint()
        finally:
            fresh.close()
        assert again.read_bytes() == written

    def test_resume_refuses_orphaned_federation_state(
        self, service_config, site_wire, tmp_path
    ):
        path = str(tmp_path / "ckpt.json")
        fleet = make_fleet(service_config, store_dir=tmp_path / "stores")
        store = open_store(str(tmp_path / "federation.db"))
        try:
            app = ServiceApp(
                fleet,
                checkpoint_path=path,
                checkpoint_every=1,
                federator=make_federator(service_config, store=store),
            )
            app.handle(req(
                "POST", "/digest", body=site_wire["east"][0].encode()
            ))
        finally:
            fleet.close()
            store.close()
        fresh = make_fleet(
            service_config, store_dir=tmp_path / "stores2"
        )
        try:
            with pytest.raises(CheckpointError, match="federation"):
                resume_sequence(
                    fresh, self._settings(path), resume=True,
                    federator=None,
                )
        finally:
            fresh.close()

    def test_plain_checkpoint_resumes_under_a_federator(
        self, service_config, tmp_path
    ):
        path = str(tmp_path / "ckpt.json")
        fleet = make_fleet(service_config, store_dir=tmp_path / "stores")
        try:
            app = ServiceApp(fleet, checkpoint_path=path)
            app.checkpoint()
        finally:
            fleet.close()
        fresh = make_fleet(
            service_config, store_dir=tmp_path / "stores2"
        )
        federator = make_federator(service_config)
        try:
            sequence = resume_sequence(
                fresh, self._settings(path), resume=True,
                federator=federator,
            )
            assert sequence == 0
            assert federator.next_interval == 0
        finally:
            fresh.close()
