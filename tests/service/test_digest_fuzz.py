"""``POST /digest`` over arbitrary bodies.

Real wire lines from two collectors are mutated byte by byte,
truncated, spliced into each other, or replaced by random bytes.  Every
body answers 200 or a typed 400 (a 500 is a bug), and a 400 applies
nothing: the federator's resume state and ``/healthz`` are as they
were.  Each body decodes to at most one digest, so a federator-level
refusal (stale, duplicate) is atomic too - a body of several digests
the federator refuses part-way is documented to keep its earlier ones.
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


@pytest.fixture(scope="module")
def daemon(service_config):
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
    yield ServiceApp(fleet, federator=federator)
    fleet.close()


def post(app: ServiceApp, body: bytes) -> tuple[int, dict]:
    status, payload, _ = app.handle(HttpRequest(
        method="POST", target="/digest", path="/digest",
        query={}, headers={}, body=body,
    ))
    return status, json.loads(payload)


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
    body = data.draw(bodies(wire))
    before = (canonical_json(daemon.federator.to_state()), daemon.health())
    status, answer = post(daemon, body)
    assert status in (200, 400), answer
    if status == 400:
        assert "error" in answer
        after = (canonical_json(daemon.federator.to_state()), daemon.health())
        assert after == before
