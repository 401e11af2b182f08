"""``api.serve`` and ``repro-extract serve`` wire one daemon.

Both verbs load the same :class:`~repro.core.config.RunConfig` and
build the fleet, the federator, the registry and the tracer the same
way.  The daemon loop is stubbed out (``run_service`` is looked up at
call time), so each test sees exactly what a real daemon would be
handed.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.cli import main
from repro.errors import ConfigError
from repro.federation import Collector
from repro.flows import write_csv
from repro.flows.table import ALL_COLUMNS, FlowTable
from repro.obs.trace import Tracer
from repro.service.app import ServiceApp
from repro.service.protocol import HttpRequest


@pytest.fixture()
def handed(monkeypatch):
    """What ``run_service`` was called with, serving nothing but the
    ``(method, path, body)`` requests a test queued under
    ``"requests"`` beforehand (the fleet closes when serve returns)."""
    seen: dict[str, object] = {"requests": []}

    def capture(fleet, settings, resume=False, log=None, federator=None):
        seen.update(fleet=fleet, settings=settings, federator=federator)
        app = ServiceApp(fleet, federator=federator)
        for method, path, body in [
            *seen["requests"], ("GET", "/metrics", b"")
        ]:
            status, reply, _ = app.handle(HttpRequest(
                method=method, target=path, path=path,
                query={}, headers={}, body=body,
            ))
            assert status == 200, reply
        seen["metrics_page"] = reply.decode()

    monkeypatch.setattr("repro.service.supervisor.run_service", capture)
    return seen


def _serve_api(path):
    api.serve(str(path))


def _serve_cli(path):
    assert main(["serve", "--config", str(path)]) == 0


SERVERS = pytest.mark.parametrize(
    "serve", [_serve_api, _serve_cli], ids=["api", "cli"]
)


def test_api_serve_blames_the_file_for_a_base_section_typo(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text("[mining]\nmin_suport = 3\n")
    with pytest.raises(ConfigError) as refusal:
        api.serve(str(path))
    assert str(refusal.value).startswith(f"{path}: ")
    assert "did you mean 'min_support'" in str(refusal.value)


@SERVERS
def test_metrics_page_uses_the_configured_buckets(serve, tmp_path, handed):
    path = tmp_path / "run.toml"
    path.write_text("[obs]\nhistogram_buckets = [0.1, 1.0]\n")
    serve(path)
    page = handed["metrics_page"]
    assert 'le="0.1"' in page and 'le="1"' in page
    assert 'le="0.005"' not in page  # a default bound


@SERVERS
def test_federator_shares_the_fleets_registry_and_tracer(
    serve, tmp_path, handed
):
    path = tmp_path / "run.toml"
    path.write_text(
        f'[obs]\ntrace_path = "{tmp_path / "trace.jsonl"}"\n'
        '[federation]\nsites = ["east"]\n'
    )
    serve(path)
    fleet, federator = handed["fleet"], handed["federator"]
    assert isinstance(fleet.tracer, Tracer)
    digest = Collector(site="east").empty_digest(0)
    federator.add(digest)
    names = {span.name for span in fleet.tracer.spans}
    assert "fleet.run" in names or "session.run" in names
    assert "federation.merge" in names
    assert "repro_federation_digests_total" in (
        fleet.metrics.render_prometheus()
    )


@SERVERS
def test_a_daemon_without_pipelines_watches_one_link(
    serve, tmp_path, handed
):
    path = tmp_path / "run.toml"
    path.write_text("[service]\nport = 0\n")
    serve(path)
    assert handed["fleet"].names == ("link0",)
    assert handed["settings"].port == 0
    assert handed["federator"] is None


@SERVERS
def test_the_file_decides_checkpoint_sync(serve, tmp_path, handed):
    path = tmp_path / "run.toml"
    path.write_text("[service]\ncheckpoint_sync = true\n")
    serve(path)
    assert handed["settings"].checkpoint_sync is True


@SERVERS
def test_two_pipelines_and_no_route_shard_untagged_ingest(
    serve, tmp_path, handed
):
    """A daemon cannot ask every client for a pipeline tag: with no
    route configured it hash-shards ``dst_ip``, whoever opened it."""
    path = tmp_path / "run.toml"
    path.write_text("[fleet.pipelines.a]\n[fleet.pipelines.b]\n")
    body = "\n".join([
        "src_ip,dst_ip,src_port,dst_port,protocol,packets,bytes,start,label",
        *(f"7,{dst_ip},1024,80,6,1,40,{dst_ip}.5,-1" for dst_ip in range(6)),
    ])
    handed["requests"].append(("POST", "/ingest", body.encode()))
    serve(path)
    page = handed["metrics_page"]
    assert 'repro_fleet_routed_rows_total{pipeline="a"} 3' in page
    assert 'repro_fleet_routed_rows_total{pipeline="b"} 3' in page


@SERVERS
def test_a_daemon_keeps_no_extraction(serve, tmp_path, handed, service_chunks):
    """No route reads retained extractions (``/incidents`` reads the
    stores), so a daemon keeps none, whoever opened it."""
    path = tmp_path / "run.toml"
    path.write_text(
        "[detector]\ntraining_intervals = 3\nvote_threshold = 2\n"
        "[mining]\nmin_support = 40\n"
    )
    # The shared 10 s stream stretched onto the daemon's 900 s grid.
    flows = FlowTable.concat(service_chunks)
    flows = FlowTable({
        **{name: flows.column(name) for name in ALL_COLUMNS},
        "start": flows.column("start") * 90.0,
    })
    trace = tmp_path / "stream.csv"
    write_csv(flows, str(trace))
    handed["requests"].append(("POST", "/ingest", trace.read_bytes()))
    serve(path)
    fleet = handed["fleet"]
    for name in fleet.names:
        assert fleet.session(name).extraction_count >= 1
        assert fleet.session(name).extractions == []
