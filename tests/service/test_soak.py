"""Soak: a long-running daemon's state stays flat.

Ten thousand intervals of twenty flows each go through
``ServiceApp.handle(POST /ingest)`` on a one-pipeline fleet that writes
a checkpoint after every batch, with a heavy hitter planted every
:data:`ATTACK_EVERY` intervals so the detector alarms and the store
takes reports all along.  After warm-up nothing a restart reads may grow
with the length of the run: the checkpoint file, the detector bank's
``to_state()``, the bank's report list and the metric sample count are
probed every :data:`PROBE` intervals against their size at one third of
the run.  A per-interval series in the checkpoint fails the first probe
past that point.

A federated daemon gets the same probe: both sites' digests of every
interval go through ``POST /digest`` in one body, an attack is planted
every :data:`FED_ATTACK_EVERY` intervals, and neither the checkpoint
nor the federator's ``to_state()`` may grow with the reports the
federation store takes.
"""

from __future__ import annotations

import numpy as np

from repro.api import resolve_config
from repro.detection.detector import DetectorConfig
from repro.federation import Collector, Federator
from repro.fleet.manager import FleetManager
from repro.flows.table import ALL_COLUMNS, FlowTable
from repro.incidents.store import IncidentStore
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest
from repro.state import canonical_json

INTERVALS = 10_000
ROWS = 20
INTERVAL_SECONDS = 10.0
ATTACK_EVERY = 500
PROBE = 250
#: Growth allowed past the one-third reference (counters gain digits).
SLACK = 1.05
FED_INTERVALS = 3_000
FED_ATTACK_EVERY = 250
SITES = ("east", "west")


def bodies():
    """One CSV ingest body per interval: random flows, except that in
    every ``ATTACK_EVERY``-th interval one source hits one port."""
    rng = np.random.default_rng(5)
    header = ",".join(ALL_COLUMNS)
    for i in range(INTERVALS):
        src = rng.integers(0, 2**32, ROWS)
        dport = rng.integers(0, 65536, ROWS)
        if i % ATTACK_EVERY == ATTACK_EVERY - 1:
            src[:] = 123456789
            dport[:] = 1433
        rows = zip(
            src.tolist(),
            rng.integers(0, 2**32, ROWS).tolist(),
            rng.integers(1024, 65536, ROWS).tolist(),
            dport.tolist(),
            rng.integers(1, 100, ROWS).tolist(),
            rng.integers(40, 1500, ROWS).tolist(),
            np.sort(rng.uniform(0.0, INTERVAL_SECONDS, ROWS)).tolist(),
        )
        t0 = i * INTERVAL_SECONDS
        lines = [
            f"{s},{d},{sp},{dp},6,{p},{b},{t0 + t:.3f},0"
            for s, d, sp, dp, p, b, t in rows
        ]
        yield "\n".join([header, *lines, ""]).encode()


def digest_bodies(collectors):
    """One ``POST /digest`` body per interval: every site's digest of
    random flows, except that in every ``FED_ATTACK_EVERY``-th interval
    one source hits one port at every site."""
    rng = np.random.default_rng(7)
    for i in range(FED_INTERVALS):
        lines = []
        for collector in collectors:
            src = rng.integers(0, 2**32, ROWS)
            dport = rng.integers(0, 65536, ROWS)
            if i % FED_ATTACK_EVERY == FED_ATTACK_EVERY - 1:
                src[:] = 123456789
                dport[:] = 1433
            flows = FlowTable.from_arrays(
                src,
                rng.integers(0, 2**32, ROWS),
                rng.integers(1024, 65536, ROWS),
                dport,
                np.full(ROWS, 6),
                rng.integers(1, 100, ROWS),
                rng.integers(40, 1500, ROWS),
            )
            lines.append(collector.summarize(flows, i).to_json())
        yield "\n".join(lines).encode()


def ingest(body: bytes, path: str = "/ingest") -> HttpRequest:
    return HttpRequest(
        method="POST", target=path, path=path, query={},
        headers={}, body=body,
    )


def metric_samples(registry: MetricsRegistry) -> int:
    return sum(len(list(family.samples())) for family in registry.families())


def test_daemon_state_stays_flat(tmp_path):
    config = resolve_config(
        None,
        min_support=15,
        features=("dstPort",),
        detector=DetectorConfig(
            training_intervals=8, bins=64, vote_threshold=2
        ),
    )
    registry = MetricsRegistry()
    fleet = FleetManager(
        {"linkA": config},
        route="dst_ip",
        interval_seconds=INTERVAL_SECONDS,
        store_dir=tmp_path / "stores",
        metrics=registry,
    )
    checkpoint = tmp_path / "run.ckpt"
    app = ServiceApp(
        fleet, checkpoint_path=str(checkpoint), checkpoint_every=1
    )
    bank = fleet.session("linkA").detector_bank

    def probe():
        return {
            "checkpoint bytes": checkpoint.stat().st_size,
            "bank to_state() length": len(canonical_json(bank.to_state())),
            "metric samples": metric_samples(registry),
            "bank reports": len(bank.reports),
        }

    reference = None
    try:
        for i, body in enumerate(bodies()):
            status, reply, _ = app.handle(ingest(body))
            assert status == 200, reply
            if i == INTERVALS // 3:
                reference = probe()
                assert reference["bank reports"] == 0
            elif reference is not None and (
                i % PROBE == 0 or i == INTERVALS - 1
            ):
                for name, value in probe().items():
                    assert value <= SLACK * reference[name], (
                        f"interval {i}: {name} grew from "
                        f"{reference[name]} to {value}"
                    )
        assert app.sequence == app.checkpointed_sequence == INTERVALS
        # Every planted attack was reported (the last is still open),
        # and nothing else was.
        attacked = range(ATTACK_EVERY - 1, INTERVALS - 1, ATTACK_EVERY)
        reported = set(fleet.session("linkA").store.intervals())
        assert reported == set(attacked)
    finally:
        fleet.close()


def test_federated_daemon_state_stays_flat(tmp_path):
    detector = DetectorConfig(training_intervals=8, bins=64, vote_threshold=2)
    schema = dict(config=detector, features=("dstPort",))
    fleet = FleetManager(
        {"linkA": resolve_config(None)},
        route="dst_ip",
        interval_seconds=INTERVAL_SECONDS,
        store_dir=tmp_path / "stores",
    )
    checkpoint = tmp_path / "run.ckpt"
    with IncidentStore(str(tmp_path / "federation.db")) as store:
        federator = Federator(
            SITES, interval_seconds=INTERVAL_SECONDS, min_support=30,
            store=store, **schema,
        )
        app = ServiceApp(
            fleet, checkpoint_path=str(checkpoint), checkpoint_every=1,
            federator=federator,
        )

        def probe():
            return {
                "checkpoint bytes": checkpoint.stat().st_size,
                "federator to_state() length": len(
                    canonical_json(federator.to_state())
                ),
            }

        reference = None
        try:
            collectors = [Collector(site, **schema) for site in SITES]
            for i, body in enumerate(digest_bodies(collectors)):
                status, reply, _ = app.handle(ingest(body, "/digest"))
                assert status == 200, reply
                if i == FED_INTERVALS // 3:
                    reference = probe()
                elif reference is not None and (
                    i % PROBE == 0 or i == FED_INTERVALS - 1
                ):
                    for name, value in probe().items():
                        assert value <= SLACK * reference[name], (
                            f"interval {i}: {name} grew from "
                            f"{reference[name]} to {value}"
                        )
            assert app.sequence == app.checkpointed_sequence
            assert app.sequence == FED_INTERVALS
            # Every planted attack was reported, and nothing else was.
            attacked = range(
                FED_ATTACK_EVERY - 1, FED_INTERVALS, FED_ATTACK_EVERY
            )
            assert store.intervals() == list(attacked)
        finally:
            fleet.close()
