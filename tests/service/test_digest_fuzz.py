"""``POST /digest`` over arbitrary bodies.

Real wire lines from two collectors are mutated byte by byte,
truncated, spliced into each other, or replaced by random bytes.  Every
body answers 200 or a typed 400 (a 500 is a bug), and a 400 applies
nothing: the federator's resume state and ``/healthz`` are as they
were.  A body of several digests that the federator refuses part-way
(a repeated line, a line that the body's own releases make stale)
buffers none of them either.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import Collector, Federator
from repro.fleet.manager import FleetManager
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest
from repro.state import canonical_json

SITES = ("east", "west")
INTERVAL_SECONDS = 10.0


@pytest.fixture(scope="module")
def wire(service_config, service_chunks) -> list[bytes]:
    """The first four intervals of both sites, as wire lines."""
    lines = []
    for site in SITES:
        collector = Collector(
            site=site,
            config=service_config.detector,
            features=service_config.features,
            seed=0,
        )
        lines += [
            collector.summarize(chunk, i).to_json().encode()
            for i, chunk in enumerate(service_chunks[:4])
        ]
    return lines


def open_daemon(service_config) -> ServiceApp:
    fleet = FleetManager(
        {"linkA": service_config},
        route="dst_ip",
        interval_seconds=INTERVAL_SECONDS,
    )
    federator = Federator(
        sites=SITES,
        config=service_config.detector,
        features=service_config.features,
        seed=0,
        interval_seconds=INTERVAL_SECONDS,
        min_support=40,
    )
    return ServiceApp(fleet, federator=federator)


@pytest.fixture(scope="module")
def daemon(service_config):
    app = open_daemon(service_config)
    yield app
    app.fleet.close()


def post(app: ServiceApp, body: bytes) -> tuple[int, dict]:
    """Post ``body``; a 400 must leave the federator's resume state and
    ``/healthz`` as they were."""
    before = (canonical_json(app.federator.to_state()), app.health())
    status, payload, _ = app.handle(HttpRequest(
        method="POST", target="/digest", path="/digest",
        query={}, headers={}, body=body,
    ))
    answer = json.loads(payload)
    assert status in (200, 400), answer
    if status == 400:
        assert "error" in answer
        after = (canonical_json(app.federator.to_state()), app.health())
        assert after == before
    return status, answer


@st.composite
def bodies(draw, wire: list[bytes]) -> bytes:
    line = draw(st.sampled_from(wire))
    how = draw(st.sampled_from(
        ["mutate", "truncate", "splice", "random", "tail", "whole"]
    ))
    if how == "mutate":
        body = bytearray(line)
        edits = draw(st.lists(
            st.tuples(
                st.integers(0, len(line) - 1),
                st.one_of(st.integers(0x20, 0x7E), st.integers(0, 255)),
            ),
            min_size=1, max_size=4,
        ))
        for at, byte in edits:
            body[at] = byte
        return bytes(body)
    if how == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    if how == "splice":
        other = draw(st.sampled_from(wire))
        return (
            line[: draw(st.integers(0, len(line)))]
            + other[draw(st.integers(0, len(other))):]
        )
    if how == "random":
        return draw(st.binary(max_size=300))
    if how == "tail":
        # A good line, then a cut one: refused before the first applies.
        cut = draw(st.sampled_from(wire))
        return line + b"\n" + cut[: draw(st.integers(1, len(cut) - 1))]
    return line


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_body_is_answered_200_or_400(daemon, wire, data):
    post(daemon, data.draw(bodies(wire)))


@pytest.mark.parametrize(
    ("lines", "refusal"),
    [
        # east 0 twice: the second copy is a duplicate.
        ((0, 0), "duplicate digest from site 'east' for interval 0"),
        # east 0 and west 0 release interval 0, so east 0 again is stale.
        ((0, 4, 0), "stale digest for interval 0"),
    ],
    ids=["duplicated-good-line", "good-then-stale"],
)
def test_a_body_refused_part_way_buffers_nothing(
    service_config, wire, lines, refusal
):
    app = open_daemon(service_config)
    try:
        status, answer = post(app, b"\n".join(wire[i] for i in lines))
        assert status == 400
        assert refusal in answer["error"]
        assert app.federator.pending_intervals == 0
        assert app.health()["sequence"] == 0
    finally:
        app.fleet.close()
