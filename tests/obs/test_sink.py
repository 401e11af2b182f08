"""The ``[obs] jsonl_path`` trail: the interval step writes one metrics
snapshot per processed interval."""

import json

import numpy as np

import repro.api as api


def _config(path):
    return api.ExtractionConfig(obs={"enabled": True, "jsonl_path": str(path)})


def _processed(document):
    (family,) = [
        m for m in document["metrics"]["metrics"]
        if m["name"] == "repro_intervals_processed_total"
    ]
    return family["samples"][0]["value"]


def test_one_snapshot_per_interval_beside_the_store(tmp_path, tiny_flows):
    path = tmp_path / "metrics.jsonl"
    config = _config(path).replace(store_path=str(tmp_path / "s.db"))
    # Six flows one second apart on a 2 s grid: intervals 0, 1 and 2.
    with api.session(config, interval_seconds=2.0) as session:
        session.feed(tiny_flows.select(np.arange(4)))
        session.feed(tiny_flows.select(np.arange(4, 6)))
        session.finish()
        # The store still sees every interval pass.
        assert session.store.last_interval() == 2
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [d["interval"] for d in docs] == [0, 1, 2]
    # Each snapshot is taken once its interval has been processed.
    assert [_processed(d) for d in docs] == [1, 2, 3]


def test_a_bare_extractor_opens_and_releases_the_trail(tmp_path):
    path = tmp_path / "metrics.jsonl"
    extractor = api.AnomalyExtractor(_config(path))
    assert path.read_text() == ""
    extractor.close()
    assert extractor._trail.closed
