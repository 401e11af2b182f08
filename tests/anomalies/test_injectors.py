"""Unit tests for every anomaly injector class."""

import numpy as np
import pytest

from repro.anomalies import (
    BackscatterInjector,
    DDoSInjector,
    FloodingInjector,
    NetworkExperimentInjector,
    SasserLikeWorm,
    ScanInjector,
    SpamInjector,
    UnknownInjector,
)
from repro.anomalies.worm import (
    SASSER_BACKDOOR_PORT,
    SASSER_FTP_PORT,
    SASSER_PAYLOAD_BYTES,
    SASSER_SCAN_PORT,
)
from repro.errors import ConfigError

VICTIM = 0x82_3B_00_05
ATTACKERS = [0x0C000001, 0x0C000002]


@pytest.fixture()
def gen_rng():
    return np.random.default_rng(77)


def _generate(injector, rng, flows_expected=None, start=0.0, duration=900.0):
    flows = injector.generate(rng, start, duration, label=3)
    if flows_expected is not None:
        assert len(flows) == flows_expected
    assert (flows.label == 3).all()
    assert flows.start.min() >= start
    assert flows.start.max() <= start + duration
    return flows


class TestDDoS:
    def test_flow_structure(self, gen_rng):
        injector = DDoSInjector(victim_ip=VICTIM, target_port=80,
                                flows=2000, sources=100)
        flows = _generate(injector, gen_rng, 2000)
        assert (flows.dst_ip == VICTIM).all()
        assert (flows.dst_port == 80).all()
        assert len(np.unique(flows.src_ip)) > 50
        assert flows.packets.max() <= 3

    def test_signature(self):
        injector = DDoSInjector(victim_ip=VICTIM, target_port=53, flows=10)
        assert injector.signature() == {"dst_ip": VICTIM, "dst_port": 53}
        assert injector.kind == "ddos"

    @pytest.mark.parametrize(
        "kwargs",
        [dict(flows=0), dict(sources=1), dict(target_port=70000)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DDoSInjector(victim_ip=VICTIM, **kwargs)


class TestFlooding:
    def test_few_sources(self, gen_rng):
        injector = FloodingInjector(
            victim_ip=VICTIM, attacker_ips=ATTACKERS, target_port=7000,
            flows=500,
        )
        flows = _generate(injector, gen_rng, 500)
        assert set(np.unique(flows.src_ip).tolist()) <= set(ATTACKERS)
        assert (flows.dst_port == 7000).all()
        assert (flows.dst_ip == VICTIM).all()

    def test_needs_attackers(self):
        with pytest.raises(ConfigError):
            FloodingInjector(victim_ip=VICTIM, attacker_ips=[], flows=5)

    def test_describe_mentions_port(self):
        injector = FloodingInjector(victim_ip=VICTIM, attacker_ips=ATTACKERS)
        assert "7000" in injector.describe()


class TestScanning:
    def test_sweeps_target_space(self, gen_rng):
        injector = ScanInjector(
            scanner_ips=[ATTACKERS[0]], target_port=445, flows=300,
            target_space_start=VICTIM, target_space_size=1000,
        )
        flows = _generate(injector, gen_rng, 300)
        assert (flows.src_ip == ATTACKERS[0]).all()
        assert (flows.dst_port == 445).all()
        assert (flows.packets == 1).all()
        assert (flows.bytes == 48).all()
        assert len(np.unique(flows.dst_ip)) == 300  # distinct targets

    def test_wraps_small_target_space(self, gen_rng):
        injector = ScanInjector(
            scanner_ips=[ATTACKERS[0]], flows=100,
            target_space_start=VICTIM, target_space_size=10,
        )
        flows = _generate(injector, gen_rng, 100)
        assert len(np.unique(flows.dst_ip)) == 10

    def test_probe_times_sorted(self, gen_rng):
        injector = ScanInjector(scanner_ips=[ATTACKERS[0]], flows=50)
        flows = injector.generate(gen_rng, 0.0, 900.0, label=0)
        assert (np.diff(flows.start) >= 0).all()

    def test_single_scanner_in_signature(self):
        injector = ScanInjector(scanner_ips=[ATTACKERS[0]], target_port=22,
                                flows=10)
        sig = injector.signature()
        assert sig["src_ip"] == ATTACKERS[0]
        assert sig["dst_port"] == 22


class TestBackscatter:
    def test_distinct_random_sources(self, gen_rng):
        injector = BackscatterInjector(dst_port=9022, flows=1000)
        flows = _generate(injector, gen_rng, 1000)
        # "each flow has a different source IP address"
        assert len(np.unique(flows.src_ip)) > 990
        assert (flows.dst_port == 9022).all()
        assert (flows.packets == 1).all()
        assert len(np.unique(flows.src_port)) > 900

    def test_destinations_in_monitored_space(self, gen_rng):
        injector = BackscatterInjector(
            flows=200, dest_space_start=VICTIM, dest_space_size=100
        )
        flows = _generate(injector, gen_rng, 200)
        assert flows.dst_ip.min() >= VICTIM
        assert flows.dst_ip.max() < VICTIM + 100


class TestSpam:
    def test_targets_smtp(self, gen_rng):
        injector = SpamInjector(
            spammer_ips=ATTACKERS, mailserver_ips=[VICTIM, VICTIM + 1],
            flows=400,
        )
        flows = _generate(injector, gen_rng, 400)
        assert (flows.dst_port == 25).all()
        assert set(np.unique(flows.src_ip).tolist()) <= set(ATTACKERS)
        assert set(np.unique(flows.dst_ip).tolist()) <= {VICTIM, VICTIM + 1}

    def test_needs_servers(self):
        with pytest.raises(ConfigError):
            SpamInjector(spammer_ips=ATTACKERS, mailserver_ips=[], flows=5)


class TestNetworkExperiment:
    def test_single_node_fixed_ports(self, gen_rng):
        injector = NetworkExperimentInjector(
            node_ip=VICTIM, probe_port=33434, source_port=31337, flows=300
        )
        flows = _generate(injector, gen_rng, 300)
        assert (flows.src_ip == VICTIM).all()
        assert (flows.src_port == 31337).all()
        assert (flows.dst_port == 33434).all()
        assert len(np.unique(flows.dst_ip)) > 290


class TestUnknown:
    def test_partial_structure(self, gen_rng):
        injector = UnknownInjector(dst_port=6881, flows=500, sources=50,
                                   dests=60)
        flows = _generate(injector, gen_rng, 500)
        assert (flows.dst_port == 6881).all()
        assert len(np.unique(flows.src_ip)) <= 50
        assert len(np.unique(flows.dst_ip)) <= 60


class TestWorm:
    def test_three_stages_present(self, gen_rng):
        worm = SasserLikeWorm(
            infected_ips=ATTACKERS, scan_flows=300, backdoor_flows=100,
            download_flows=50,
        )
        flows = _generate(worm, gen_rng, 450)
        ports = flows.dst_port
        assert (ports == SASSER_SCAN_PORT).sum() == 300
        assert (ports == SASSER_BACKDOOR_PORT).sum() == 100
        assert (ports == SASSER_FTP_PORT).sum() == 50

    def test_download_stage_has_fixed_payload(self, gen_rng):
        worm = SasserLikeWorm(infected_ips=ATTACKERS, scan_flows=10,
                              backdoor_flows=10, download_flows=10)
        flows = worm.generate(gen_rng, 0.0, 900.0, label=0)
        downloads = flows.select(flows.dst_port == SASSER_FTP_PORT)
        assert (downloads.bytes == SASSER_PAYLOAD_BYTES).all()

    def test_stages_are_flow_disjoint(self, gen_rng):
        worm = SasserLikeWorm(infected_ips=ATTACKERS, scan_flows=50,
                              backdoor_flows=50, download_flows=50)
        flows = worm.generate(gen_rng, 0.0, 900.0, label=0)
        # No flow carries two stage ports at once - trivially true per
        # flow; the point is the *stage metadata* is disjoint: scans from
        # infected hosts, downloads *to* infected hosts.
        scans = flows.select(flows.dst_port == SASSER_SCAN_PORT)
        downloads = flows.select(flows.dst_port == SASSER_FTP_PORT)
        assert set(np.unique(scans.src_ip).tolist()) <= set(ATTACKERS)
        assert set(np.unique(downloads.dst_ip).tolist()) <= set(ATTACKERS)

    def test_stage_ordering_in_time(self, gen_rng):
        worm = SasserLikeWorm(infected_ips=ATTACKERS, scan_flows=100,
                              backdoor_flows=100, download_flows=100)
        flows = worm.generate(gen_rng, 0.0, 900.0, label=0)
        scan_start = flows.select(flows.dst_port == SASSER_SCAN_PORT).start.min()
        dl_start = flows.select(flows.dst_port == SASSER_FTP_PORT).start.min()
        assert scan_start < dl_start

    def test_validation(self):
        with pytest.raises(ConfigError):
            SasserLikeWorm(infected_ips=[])
        with pytest.raises(ConfigError):
            SasserLikeWorm(infected_ips=ATTACKERS, scan_flows=0)


class TestCommonBehaviour:
    @pytest.mark.parametrize(
        "injector",
        [
            DDoSInjector(victim_ip=VICTIM, flows=10),
            FloodingInjector(victim_ip=VICTIM, attacker_ips=ATTACKERS, flows=10),
            ScanInjector(scanner_ips=ATTACKERS, flows=10),
            BackscatterInjector(flows=10),
            SpamInjector(spammer_ips=ATTACKERS, mailserver_ips=[VICTIM], flows=10),
            NetworkExperimentInjector(node_ip=VICTIM, flows=10),
            UnknownInjector(flows=10, sources=3, dests=3),
            SasserLikeWorm(infected_ips=ATTACKERS, scan_flows=4,
                           backdoor_flows=3, download_flows=3),
        ],
        ids=lambda inj: inj.kind,
    )
    def test_generate_args_validated(self, injector, gen_rng):
        with pytest.raises(ConfigError):
            injector.generate(gen_rng, 0.0, -1.0, label=0)
        with pytest.raises(ConfigError):
            injector.generate(gen_rng, 0.0, 1.0, label=-1)
        with pytest.raises(ConfigError):
            injector.generate(gen_rng, -5.0, 1.0, label=0)

    @pytest.mark.parametrize(
        "injector",
        [
            DDoSInjector(victim_ip=VICTIM, flows=10),
            BackscatterInjector(flows=10),
        ],
        ids=lambda inj: inj.kind,
    )
    def test_determinism_given_rng(self, injector):
        a = injector.generate(np.random.default_rng(1), 0.0, 900.0, label=0)
        b = injector.generate(np.random.default_rng(1), 0.0, 900.0, label=0)
        assert a == b
