"""Shared federation fixtures: one DDoS trace split across two PoPs.

The subsystem's contract is *equivalence*: detection over merged
digests must match a single detector bank fed the concatenated trace
(exactly, for the clone snapshots).  Every module here therefore works
from the same split of the session ``ddos_trace`` plus the same
single-bank ground truth, so the comparisons are byte-for-byte
meaningful.
"""

from __future__ import annotations

import pytest

from repro.detection.detector import DetectorConfig
from repro.detection.manager import DetectorBank
from repro.federation import Collector, Federator, split_trace
from repro.flows.stream import iter_intervals

#: Short training window so the 30-interval session trace has alarmed
#: intervals left to federate.
TRAINING_INTERVALS = 16
BINS = 256
SITES = ("east", "west")
MIN_SUPPORT = 300
INTERVAL_SECONDS = 900.0
ATTACK_INTERVAL = 24


@pytest.fixture(scope="session")
def fed_config():
    return DetectorConfig(training_intervals=TRAINING_INTERVALS, bins=BINS)


@pytest.fixture(scope="session")
def site_flows(ddos_trace):
    """The DDoS trace split as if two PoPs had captured it."""
    return split_trace(ddos_trace.flows, SITES, "dst_ip%2")


@pytest.fixture(scope="session")
def collector_factory(fed_config):
    """Collectors pre-wired to the federation's shared schema."""

    def make(site: str, **kwargs) -> Collector:
        defaults = dict(config=fed_config, seed=0)
        defaults.update(kwargs)
        return Collector(site=site, **defaults)

    return make


@pytest.fixture(scope="session")
def federator_factory(fed_config):
    """Federators pre-wired to the same schema as the collectors."""

    def make(**kwargs) -> Federator:
        defaults = dict(
            sites=SITES,
            config=fed_config,
            seed=0,
            interval_seconds=INTERVAL_SECONDS,
            min_support=MIN_SUPPORT,
        )
        defaults.update(kwargs)
        return Federator(**defaults)

    return make


@pytest.fixture(scope="session")
def site_digests(site_flows, collector_factory):
    """Each site's 30 interval digests (snapshots are immutable, so
    sharing one set across tests is safe)."""
    return {
        site: collector_factory(site).run(
            flows, INTERVAL_SECONDS, origin=0.0
        )
        for site, flows in site_flows.items()
    }


@pytest.fixture(scope="session")
def attack_flows(ddos_trace):
    """The concatenated flows of the DDoS interval."""
    for view in iter_intervals(
        ddos_trace.flows, INTERVAL_SECONDS, origin=0.0
    ):
        if view.index == ATTACK_INTERVAL:
            return view.flows
    raise AssertionError("trace lost its attack interval")


@pytest.fixture(scope="session")
def local_run(ddos_trace, fed_config):
    """Single-bank ground truth over the concatenated trace: the bank
    (for state comparison) and its detection run (for alarms)."""
    bank = DetectorBank(fed_config, seed=0)
    run = bank.run(ddos_trace.flows, INTERVAL_SECONDS, origin=0.0)
    return bank, run
