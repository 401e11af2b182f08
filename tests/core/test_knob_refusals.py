"""Every run knob is refused the same way at every entry point.

Each knob has one check, at the lowest layer that uses it; the settings
table, a TOML run config read by ``RunConfig.load``, the runtime object
that runs the knob and the :mod:`repro.api` verb all reach that check.
A cell of the table below is one bad value at one entry point: it must
be a :class:`ConfigError` whose text matches the knob's one wording (a
TOML float given for an integer key is refused by the file's type check,
which names the key the same way).  A count is an integer: ``2.0`` is
refused too, except by the incident store, which takes a whole float
``quiet_gap`` as its integer before the check (``tests/incidents``).
"""

import json
import math
import os
import tempfile

import pytest

import repro.api as api
from repro.core.config import (
    ExtractionConfig,
    FederationSettings,
    FleetSettings,
    IncidentSettings,
    MiningSettings,
    ObsSettings,
    RunConfig,
    ServiceSettings,
    StreamingSettings,
)
from repro.errors import ConfigError
from repro.federation.federator import Federator
from repro.fleet.manager import FleetManager
from repro.flows.table import FlowTable
from repro.incidents.correlate import IncidentCorrelator
from repro.incidents.rank import rank_incidents
from repro.incidents.store import IncidentStore
from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.partition import son
from repro.mining.streaming import SlidingWindowMiner
from repro.mining.transactions import TransactionSet
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.supervisor import ServiceSupervisor
from repro.streaming.assembler import IntervalAssembler

NAN, INF = math.nan, math.inf


def _toml(value: object) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml(v) for v in value) + "]"
    return json.dumps(value)


def _load_toml(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.toml")
        with open(path, "w") as handle:
            handle.write(text)
        RunConfig.load(path)


def _fleet():
    return FleetManager({"a": ExtractionConfig()}, route="dst_ip")


def _transactions():
    return TransactionSet.from_flows(FlowTable.empty())


def _fleet_rank(**kwargs):
    with _fleet() as fleet:
        fleet.incidents(**kwargs)


def _app(**kwargs):
    with _fleet() as fleet:
        ServiceApp(fleet, **kwargs)


def _supervisor(**kwargs):
    with _fleet() as fleet:
        ServiceSupervisor(ServiceApp(fleet), **kwargs)


def _store_rank(**kwargs):
    with IncidentStore(":memory:") as store:
        store.incidents(**kwargs)


def _api_rank(**kwargs):
    with IncidentStore(":memory:") as store:
        api.rank(store, **kwargs)


def _open_store(**kwargs):
    api.open_store(":memory:", **kwargs).close()


def _store(**kwargs):
    IncidentStore(":memory:", **kwargs).close()


def _federator(**kwargs):
    Federator(**{"sites": ("a",), **kwargs})


#: knob -> (wording every refusal matches, bad values, TOML (section,
#: key) or None, {entry point: one-argument call}).
KNOBS = {
    "max_delay_seconds": (
        r"max_delay_seconds must be",
        [-1.0, NAN, INF],
        ("streaming", "max_delay_seconds"),
        {
            "table": lambda v: StreamingSettings(max_delay_seconds=v),
            "assembler": lambda v: IntervalAssembler(900.0, max_delay_seconds=v),
            "api.session": lambda v: api.session(max_delay_seconds=v),
        },
    ),
    "max_pending_intervals": (
        r"max_pending_intervals must be",
        [0, -1, 2.0, 2.5, NAN],
        ("streaming", "max_pending_intervals"),
        {
            "table": lambda v: StreamingSettings(max_pending_intervals=v),
            "assembler": lambda v: IntervalAssembler(900.0, max_pending_intervals=v),
            "api.session": lambda v: api.session(max_pending_intervals=v),
        },
    ),
    "window_intervals": (
        r"window(_intervals)? must be",
        [0, -1, 2.0, 2.5, NAN],
        ("streaming", "window_intervals"),
        {
            "table": lambda v: StreamingSettings(window_intervals=v),
            "window miner": lambda v: SlidingWindowMiner(window=v, min_support=1),
            "api.session": lambda v: api.session(window_intervals=v),
        },
    ),
    "jaccard": (
        r"jaccard must be",
        [0, -1, 1.5, NAN, INF],
        ("incidents", "jaccard"),
        {
            "table": lambda v: IncidentSettings(jaccard=v),
            "store": lambda v: _store(jaccard=v),
            "correlator": lambda v: IncidentCorrelator(jaccard=v),
            "api.open_store": lambda v: _open_store(jaccard=v),
            "api.rank": lambda v: _api_rank(jaccard=v),
        },
    ),
    "quiet_gap": (
        r"quiet_gap must be",
        [0, -1, 2.5, NAN, INF],
        ("incidents", "quiet_gap"),
        {
            "table": lambda v: IncidentSettings(quiet_gap=v),
            "store": lambda v: _store(quiet_gap=v),
            "correlator": lambda v: IncidentCorrelator(quiet_gap=v),
            "api.open_store": lambda v: _open_store(quiet_gap=v),
            "api.rank": lambda v: _api_rank(quiet_gap=v),
        },
    ),
    "histogram_buckets": (
        r"histogram_buckets (must|needs)",
        [(), (5.0, 1.0), (1.0, 1.0), (1.0, INF), (NAN,)],
        ("obs", "histogram_buckets"),
        {
            "table": lambda v: ObsSettings(histogram_buckets=v),
            "registry": lambda v: MetricsRegistry(buckets=v),
            "histogram": lambda v: Histogram("repro_x_seconds", buckets=v),
            "api.metrics": lambda v: api.metrics(buckets=v),
        },
    ),
    "min_support": (
        r"min_support must be",
        [0, -1, 2.0, 2.5, NAN],
        ("mining", "min_support"),
        {
            "table": lambda v: MiningSettings(min_support=v),
            "apriori": lambda v: apriori(_transactions(), v),
            "eclat": lambda v: eclat(_transactions(), v),
            "fpgrowth": lambda v: fpgrowth(_transactions(), v),
            "son": lambda v: son(_transactions(), v),
            "window miner": lambda v: SlidingWindowMiner(window=1, min_support=v),
            "api.extract": lambda v: api.extract(FlowTable.empty(), min_support=v),
        },
    ),
    "[federation] min_support": (
        r"\[federation\] min_support must be",
        [0, -1, 2.0, 2.5, NAN],
        ("federation", "min_support"),
        {
            "table": lambda v: FederationSettings(min_support=v),
            "federator": lambda v: _federator(min_support=v),
            "api.federate": lambda v: api.federate({}, min_support=v),
        },
    ),
    "straggler_grace": (
        r"straggler_grace must be",
        [0, -1, 2.0, 2.5, NAN],
        ("federation", "straggler_grace"),
        {
            "table": lambda v: FederationSettings(straggler_grace=v),
            "federator": lambda v: _federator(straggler_grace=v),
            "api.federate": lambda v: api.federate({}, straggler_grace=v),
        },
    ),
    "sites": (
        r"\[federation\] site",
        [[""], ["a", "a"]],
        ("federation", "sites"),
        {
            "table": lambda v: FederationSettings(sites=tuple(v)),
            "federator": lambda v: _federator(sites=v),
            "api.federate": lambda v: api.federate(
                {}, config={"federation": {"sites": v}}
            ),
        },
    ),
    "checkpoint_every": (
        r"checkpoint_every must be",
        [0, -1, 2.0, 2.5, NAN],
        ("service", "checkpoint_every"),
        {
            "table": lambda v: ServiceSettings(checkpoint_every=v),
            "app": lambda v: _app(checkpoint_every=v),
            "api.serve": lambda v: api.serve(checkpoint_every=v),
        },
    ),
    "chunk_rows": (
        r"chunk_rows must be",
        [0, -1, 2.0, 2.5, NAN],
        ("service", "chunk_rows"),
        {
            "table": lambda v: ServiceSettings(chunk_rows=v),
            "app": lambda v: _app(chunk_rows=v),
            "api.serve": lambda v: api.serve({"service": {"chunk_rows": v}}),
        },
    ),
    "max_body_bytes": (
        r"max_body_bytes must be",
        [0, -1, 2.0, 2.5, NAN],
        ("service", "max_body_bytes"),
        {
            "table": lambda v: ServiceSettings(max_body_bytes=v),
            "supervisor": lambda v: _supervisor(max_body_bytes=v),
            "api.serve": lambda v: api.serve({"service": {"max_body_bytes": v}}),
        },
    ),
    "port": (
        r"port must be",
        [-1, 65536, 2.5, True],
        ("service", "port"),
        {
            "table": lambda v: ServiceSettings(port=v),
            "supervisor": lambda v: _supervisor(port=v),
            "api.serve": lambda v: api.serve(port=v),
        },
    ),
    "host": (
        r"host must be",
        [""],
        ("service", "host"),
        {
            "table": lambda v: ServiceSettings(host=v),
            "supervisor": lambda v: _supervisor(host=v),
            "api.serve": lambda v: api.serve(host=v),
        },
    ),
    "pipeline names": (
        r"pipeline name must be a non-empty string",
        [[""]],
        None,
        {
            "RunConfig.load": lambda v: _load_toml('[fleet.pipelines.""]\n'),
            "table": lambda v: FleetSettings(
                pipelines=tuple((name, ExtractionConfig()) for name in v)
            ),
            "fleet": lambda v: FleetManager(dict.fromkeys(v, ExtractionConfig())),
            "api.open_fleet": lambda v: api.open_fleet(pipelines=v),
        },
    ),
    "duplicate pipeline names": (
        r"duplicate pipeline name",
        [["a", "a"]],
        None,
        {
            "table": lambda v: FleetSettings(
                pipelines=tuple((name, ExtractionConfig()) for name in v)
            ),
            "api.open_fleet": lambda v: api.open_fleet(pipelines=v),
        },
    ),
    "profile": (
        r"unknown weight profile",
        ["nope", ""],
        None,
        {
            "rank_incidents": lambda v: rank_incidents([], profile=v),
            "store": lambda v: _store_rank(profile=v),
            "fleet": lambda v: _fleet_rank(profile=v),
            "api.rank": lambda v: _api_rank(profile=v),
        },
    ),
    "top": (
        r"top must be",
        [0, -1, 2.0, 2.5],
        None,
        {
            "rank_incidents": lambda v: rank_incidents([], top=v),
            "store": lambda v: _store_rank(top=v),
            "fleet": lambda v: _fleet_rank(top=v),
            "api.rank": lambda v: _api_rank(top=v),
        },
    ),
}


def _cells():
    for knob, (wording, values, toml_key, entries) in KNOBS.items():
        points = dict(entries)
        if toml_key is not None:
            section, key = toml_key
            points["RunConfig.load"] = lambda v, s=section, k=key: _load_toml(
                f"[{s}]\n{k} = {_toml(v)}\n"
            )
        for value in values:
            for entry, call in points.items():
                yield pytest.param(
                    wording, call, value, id=f"{knob}-{entry}-{value!r}"
                )


@pytest.mark.parametrize("wording, call, value", list(_cells()))
def test_refused_as_config_error(wording, call, value):
    with pytest.raises(ConfigError, match=wording):
        call(value)
